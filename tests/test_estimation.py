import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmuplan.estimation import (
    StateScope,
    UnobservableStateError,
    metric_function,
    placement_metric,
)
from pmuplan.linalg import (
    CovarianceModel,
    build_jacobian,
    diag_metrics,
    enumerate_channels,
    projection_matrix,
    sensitivity_matrix,
    sensitivity_report,
    wls_estimate,
)
from pmuplan.measurements import ChannelLimitError, PmuPlacement, greedy_observable_cover
from pmuplan.network import Branch, Bus, NetworkCase


@pytest.fixture
def two_bus():
    # lossless unit-reactance line: Y_ff = -j, Y_ft = +j
    return NetworkCase(
        name="two-bus",
        buses=(Bus(1), Bus(2)),
        branches=(Branch(1, 2, 0.0, 1.0),),
    )


def _counting_average(case, buses):
    """Rank-driven closed form: branches touching Q over |Q| plus that count."""
    q = set(buses)
    touching = sum(
        1
        for br in case.branches
        if br.from_bus in q or br.to_bus in q
    )
    return touching / (len(q) + touching)


def test_two_bus_jacobian_is_pinned(two_bus):
    H = build_jacobian(two_bus, enumerate_channels(two_bus, PmuPlacement.of([1])))
    assert H.m == 4 and H.n == 4
    assert H.cols == ((1, "Vr"), (1, "Vx"), (2, "Vr"), (2, "Vx"))
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
            [-1.0, 0.0, 1.0, 0.0],
        ]
    )
    np.testing.assert_allclose(H.matrix, expected, atol=1e-15)


@pytest.mark.parametrize("bad", ["bogus", "full", None, True, 0])
def test_scope_must_be_a_state_scope_or_its_value(ieee14, bad):
    """Every scope but StateScope.FULL once scored as pmu-state:
    ``scope="bogus"`` gave 0.7778. A member's value stands for the member."""
    placement = PmuPlacement.of([2, 6, 7, 9])
    mset = enumerate_channels(ieee14, placement)
    message = f"scope must be a StateScope or its value, got {bad!r}"
    for call in (lambda: placement_metric(ieee14, placement, scope=bad),
                 lambda: metric_function(ieee14, scope=bad),
                 lambda: build_jacobian(ieee14, mset, scope=bad),
                 lambda: sensitivity_report(ieee14, placement, scope=bad)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    for scope in StateScope:
        value = placement_metric(ieee14, placement, scope=scope)
        assert placement_metric(ieee14, placement, scope=scope.value) == value
        assert metric_function(ieee14, scope=scope.value)(placement.buses) == value
        assert build_jacobian(ieee14, mset, scope=scope.value).n == (
            build_jacobian(ieee14, mset, scope=scope).n)


def test_jacobian_shapes_by_scope(ieee14):
    nu = PmuPlacement.of([2, 6, 7, 9])
    mset = enumerate_channels(ieee14, nu)
    full = build_jacobian(ieee14, mset, scope=StateScope.FULL)
    local = build_jacobian(ieee14, mset, scope=StateScope.PMU)
    assert (full.m, full.n) == (36, 28)
    assert (local.m, local.n) == (36, 8)
    # pmu-state keeps only columns at placed buses, in case order
    assert local.cols == tuple((b, c) for b in (2, 6, 7, 9) for c in ("Vr", "Vx"))


def test_wls_recovers_noiseless_states(ieee14):
    nu = PmuPlacement.of([2, 6, 7, 9])
    H = build_jacobian(ieee14, enumerate_channels(ieee14, nu))
    rng = np.random.default_rng(7)
    x = rng.normal(size=H.n)
    got = wls_estimate(H, CovarianceModel.unit(H.m), H.matrix @ x)
    np.testing.assert_allclose(got, x, rtol=1e-9)
    assert np.all(wls_estimate(H, None, np.zeros(H.m)) == 0.0)


def test_wls_matches_dense_normal_equations(two_bus):
    H = build_jacobian(two_bus, enumerate_channels(two_bus, PmuPlacement.of([1])))
    dz = np.array([1.0, 0.0, 0.5, -1.0])
    got = wls_estimate(H, CovarianceModel.unit(4), dz)
    A = H.matrix
    expected = np.linalg.solve(A.T @ A, A.T @ dz)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_square_invertible_projection_is_identity(two_bus):
    H = build_jacobian(two_bus, enumerate_channels(two_bus, PmuPlacement.of([1])))
    K = projection_matrix(H)
    S = sensitivity_matrix(H)
    np.testing.assert_allclose(K, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(S, np.zeros((4, 4)), atol=1e-12)


def test_projection_trace_equals_state_rank(ieee14):
    nu = PmuPlacement.of([2, 6, 7, 9])
    mset = enumerate_channels(ieee14, nu)
    local = projection_matrix(build_jacobian(ieee14, mset, scope=StateScope.PMU))
    full = projection_matrix(build_jacobian(ieee14, mset, scope=StateScope.FULL))
    assert np.trace(local) == pytest.approx(8.0, abs=1e-8)
    assert np.trace(full) == pytest.approx(28.0, abs=1e-8)


def test_projection_identities_hold(ieee14):
    mset = enumerate_channels(ieee14, PmuPlacement.of([2, 6, 7, 9]))
    H = build_jacobian(ieee14, mset, scope=StateScope.PMU)
    R = CovarianceModel.for_channels(mset, sigma_v=0.5, sigma_i=2.0)
    K = projection_matrix(H, R)
    S = sensitivity_matrix(H, R)
    assert np.max(np.abs(K @ K - K)) <= 1e-8
    assert np.max(np.abs(S @ H.matrix)) <= 1e-8
    assert np.trace(S) == pytest.approx(H.m - 8, abs=1e-6)


def test_scalar_covariance_rescale_leaves_projection_alone(ieee14):
    mset = enumerate_channels(ieee14, PmuPlacement.of([2, 6, 7, 9]))
    H = build_jacobian(ieee14, mset, scope=StateScope.PMU)
    base = CovarianceModel.unit(H.m)
    scaled = CovarianceModel(tuple(25.0 * v for v in base.variances))
    np.testing.assert_allclose(
        projection_matrix(H, base), projection_matrix(H, scaled), atol=1e-10
    )


def test_sensitivity_is_symmetric_under_uniform_noise(ieee14):
    mset = enumerate_channels(ieee14, PmuPlacement.of([1, 4, 6, 7, 9]))
    H = build_jacobian(ieee14, mset, scope=StateScope.FULL)
    S = sensitivity_matrix(H, CovarianceModel(tuple([4.0] * H.m)))
    assert np.max(np.abs(S - S.T)) <= 1e-8


def test_unobservable_full_state_names_null_dimension(ieee14):
    mset = enumerate_channels(ieee14, PmuPlacement.of([2]))
    H = build_jacobian(ieee14, mset, scope=StateScope.FULL)
    with pytest.raises(UnobservableStateError) as err:
        projection_matrix(H)
    assert err.value.null_dimension == 28 - 10
    assert "18" in str(err.value)


def test_covariance_model_validation(ieee14):
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            CovarianceModel((1.0, bad))
    mset = enumerate_channels(ieee14, PmuPlacement.of([2, 6, 7, 9]))
    with pytest.raises(ValueError):
        CovarianceModel.for_channels(mset, sigma_v=-1.0)
    R = CovarianceModel.for_channels(mset, sigma_v=0.1, sigma_i=0.3)
    arr = R.as_array()
    # voltage pairs lead the channel list
    assert arr[0] == pytest.approx(0.01)
    assert arr[-1] == pytest.approx(0.09)


def test_diag_metrics_of_zero_matrix():
    report = diag_metrics(np.zeros((5, 5)), n=5, rank=5)
    assert report.min == report.max == report.sum == report.average == 0.0
    assert (report.m, report.n, report.rank) == (5, 5, 5)


def test_report_serializes_with_fixed_field_order(ieee14):
    report = sensitivity_report(ieee14, PmuPlacement.of([2, 6, 7, 9]))
    d = report.to_dict()
    assert list(d) == ["m", "n", "rank", "min", "max", "sum", "average", "diag_s"]
    assert d["m"] == 36 and d["n"] == 8 and d["rank"] == 8
    assert len(d["diag_s"]) == 36


def test_metric_matches_counting_oracle_exactly(ieee14, ieee118):
    samples_14 = [
        (2, 6, 7, 9),
        (1, 2, 6, 7, 9),
        (2, 4, 6, 7, 9),
        (2, 6, 7, 9, 10, 14),
        tuple(range(1, 15)),
    ]
    for buses in samples_14:
        got = placement_metric(ieee14, PmuPlacement.of(buses))
        assert got == pytest.approx(_counting_average(ieee14, buses), abs=1e-12)
    got = placement_metric(ieee118, PmuPlacement.of([5, 17, 80], channel_limit=9))
    assert got == pytest.approx(_counting_average(ieee118, [5, 17, 80]), abs=1e-12)


def test_reference_row_values(ieee14):
    rows = {
        (2, 6, 7, 9): (28.0, 0.7778),
        (1, 2, 6, 7, 9): (30.0, 0.7500),
        (2, 3, 6, 7, 9): (30.0, 0.7500),
        (2, 4, 6, 7, 9): (32.0, 0.7619),
        (2, 5, 6, 7, 9): (32.0, 0.7619),
        (2, 6, 7, 9, 10): (30.0, 0.7500),
        (2, 6, 7, 9, 14): (30.0, 0.7500),
        (2, 6, 7, 9, 10, 14): (32.0, 0.7273),
    }
    for buses, (total, average) in rows.items():
        report = sensitivity_report(ieee14, PmuPlacement.of(buses))
        assert report.sum == pytest.approx(total, abs=1e-3)
        assert report.average == pytest.approx(average, abs=1e-3)
        assert report.min <= report.average <= report.max


def test_flat_branch_model_changes_entries_not_average(ieee14):
    nu = PmuPlacement.of([2, 6, 7, 9])
    mset = enumerate_channels(ieee14, nu)
    dressed = build_jacobian(ieee14, mset, scope=StateScope.PMU)
    flat = build_jacobian(ieee14, mset, scope=StateScope.PMU, flat_branch_model=True)
    assert np.max(np.abs(dressed.matrix - flat.matrix)) > 1e-6
    # the average is rank-driven, so the shunt convention cannot move it
    flat_report = sensitivity_report(ieee14, nu, flat_branch_model=True)
    assert flat_report.average == pytest.approx(placement_metric(ieee14, nu), abs=1e-12)


@pytest.mark.parametrize("bad", [0, 2.5, float("nan"), True])
def test_metric_function_with_a_bad_limit_raises_when_called(ieee14, bad):
    """As with a limit of 0, f takes any limit but has no scorer, and raises
    on every placement, naming the limit: at nan it scored (2, 6, 7, 9) as
    0.7778 although bus 2 has 4 incident branches."""
    for gain in (False, True):
        f = metric_function(ieee14, channel_limit=bad, gain=gain)
        assert f.scorer is None
        with pytest.raises(ValueError, match=re.escape(f"channel_limit must be a positive "
                                                       f"integer, got {bad!r}")):
            f(frozenset({2, 6, 7, 9}))
        assert f.scores == {}
    with pytest.raises(ValueError, match="channel_limit must be a positive integer, got nan"):
        placement_metric(ieee14, PmuPlacement.of((2, 6, 7, 9), channel_limit=float("nan")))


def test_metric_function_orientation_and_cache(ieee14):
    score = metric_function(ieee14)
    improve = metric_function(ieee14, gain=True)
    nu = frozenset({2, 6, 7, 9})
    assert improve(nu) == pytest.approx(-score(nu), abs=0.0)
    # any iterable spelling the same set scores the same
    assert score([9, 7, 6, 2]) == score(nu)


def test_pmu_scope_never_unobservable_full_scope_can_be(ieee14):
    # one isolated PMU observes its own neighborhood but not the system
    assert placement_metric(ieee14, PmuPlacement.of([5])) < 1.0
    with pytest.raises(UnobservableStateError):
        placement_metric(ieee14, PmuPlacement.of([5]), scope=StateScope.FULL)


def _svd_oracle(case, placement, **kw):
    """(average, None) from the SVD pipeline, or (None, null dimension)."""
    try:
        return sensitivity_report(case, placement, **kw).average, None
    except UnobservableStateError as err:
        mset = enumerate_channels(case, placement, dedupe=kw["dedupe"])
        H = build_jacobian(case, mset, scope=kw["scope"],
                           flat_branch_model=kw["flat_branch_model"])
        R = CovarianceModel.for_channels(mset, kw["sigma_v"], kw["sigma_i"])
        with pytest.raises(UnobservableStateError) as again:
            projection_matrix(H, R)
        assert again.value.null_dimension == err.null_dimension
        return None, err.null_dimension


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_counting_score_matches_svd_pipeline(ieee14, ieee118, data):
    case = data.draw(st.sampled_from([ieee14, ieee118]), label="case")
    if data.draw(st.booleans(), label="all buses but a few"):
        # large placements are counted from the buses outside them
        left_out = data.draw(st.sets(st.sampled_from(case.bus_ids), max_size=3), label="left out")
        buses = set(case.bus_ids) - left_out
    else:
        buses = data.draw(st.sets(st.sampled_from(case.bus_ids), min_size=1), label="buses")
        if data.draw(st.booleans(), label="add observable cover"):
            buses |= set(greedy_observable_cover(case).buses)
    kw = dict(
        scope=data.draw(st.sampled_from(list(StateScope)), label="scope"),
        dedupe=data.draw(st.sampled_from(["by-branch", "per-end"]), label="dedupe"),
    )
    # the noise levels and the branch model reach only the oracle
    noise = dict(
        flat_branch_model=data.draw(st.booleans(), label="flat"),
        sigma_v=data.draw(st.floats(0.1, 10.0), label="sigma_v"),
        sigma_i=data.draw(st.floats(0.1, 10.0), label="sigma_i"),
    )
    placement = PmuPlacement.of(buses, channel_limit=16)
    expected, null_dimension = _svd_oracle(case, placement, **kw, **noise)
    if null_dimension is not None:
        with pytest.raises(UnobservableStateError) as err:
            placement_metric(case, placement, **kw)
        assert err.value.null_dimension == null_dimension
    else:
        value = placement_metric(case, placement, **kw)
        assert abs(value - expected) <= 1e-12
        # and the count is exactly (m - n) / m of the pipeline's own m and n
        mset = enumerate_channels(case, placement, dedupe=kw["dedupe"])
        m, n = len(mset), build_jacobian(case, mset, scope=kw["scope"]).n
        assert value == float(Fraction(m - n, m))


def test_counting_score_is_the_exact_rational(ieee14, ieee118):
    nu = PmuPlacement.of([2, 6, 7, 9])
    assert placement_metric(ieee14, nu) == float(Fraction(14, 18))
    # 36 channels against 2N = 28 states; per-end meters 15 ends, not 14
    assert placement_metric(ieee14, nu, scope=StateScope.FULL) == float(Fraction(8, 36))
    assert placement_metric(ieee14, nu, dedupe="per-end") == float(Fraction(30, 38))
    cover = greedy_observable_cover(ieee118)
    m = 2 * len(cover) + 2 * len({i for b in cover.buses for i in ieee118.incident_branches(b)})
    full = placement_metric(ieee118, cover, scope=StateScope.FULL)
    assert full == float(Fraction(m - 236, m))


def test_counting_score_keeps_the_pipeline_validation(ieee14, ieee118):
    nu = PmuPlacement.of([2, 6, 7, 9])
    with pytest.raises(KeyError, match="placement bus 99"):
        placement_metric(ieee14, PmuPlacement.of([2, 99]))
    with pytest.raises(ChannelLimitError):
        placement_metric(ieee118, PmuPlacement.of([49]))
    with pytest.raises(ValueError, match="dedupe"):
        placement_metric(ieee14, nu, dedupe="sometimes")
    with pytest.raises(ValueError, match="measurement set is empty"):
        placement_metric(ieee14, PmuPlacement.of([]))
    # the noise levels reach only the SVD pipeline, which validates them and
    # names the argument and its value
    for name in ("sigma_v", "sigma_i"):
        # a bool is no sigma, nor is a number's text
        for bad in (0.0, -1.0, float("nan"), float("inf"), True, "2"):
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be finite and positive, got {bad!r}")):
                sensitivity_report(ieee14, nu, **{name: bad})
        # finite and positive, but the square overflows to inf or underflows to 0
        for bad in (1e300, 1.4e154, 1e-170, 1e-320):
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must square to a finite, positive variance, got {bad!r}")):
                sensitivity_report(ieee14, nu, **{name: bad})
        assert sensitivity_report(ieee14, nu, **{name: 1.3e154}).m == 36


@pytest.mark.parametrize("name", ["sigma_v", "sigma_i"])
def test_an_int_sigma_past_the_float_range_is_refused_by_name(ieee14, name):
    """An int is compared and squared as the float the covariance holds:
    10**200 once passed the check, as its int square is below inf, and
    the covariance raised a bare OverflowError naming no argument."""
    nu = PmuPlacement.of([2, 6, 7, 9])
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must square to a finite, positive variance, got {10**200!r}")):
        sensitivity_report(ieee14, nu, **{name: 10**200})
    # past the largest float, no conversion is possible
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be finite and positive, got {10**400!r}")):
        sensitivity_report(ieee14, nu, **{name: 10**400})
    assert sensitivity_report(ieee14, nu, **{name: 10**100}).m == 36


def test_unobservable_null_dimension_by_count(ieee14):
    # fewer channels than states: the deficit is n - m
    with pytest.raises(UnobservableStateError) as err:
        placement_metric(ieee14, PmuPlacement.of([2]), scope=StateScope.FULL)
    assert err.value.null_dimension == 28 - 10
    # enough channels, yet buses 12 and 13 see no PMU: two states each
    placement = PmuPlacement.of([2, 4, 5, 7, 9, 10, 11])
    with pytest.raises(UnobservableStateError) as err:
        placement_metric(ieee14, placement, scope=StateScope.FULL)
    assert err.value.null_dimension == 4
