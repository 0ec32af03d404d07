"""Placements handed to metric_function's f as masks of position bits.

The audit hands a shared metric (one whose ``case`` is the audited case)
each placement as the int mask of its position bits, undecoded. f scores a
mask through the accumulator's mask path, which reads the case's rows by
position. The frozenset of the mask's ids is the oracle: f must give its
value bit for bit and its errors by type and message, and the audit must
give what it gives to a metric that is handed frozensets.
"""

import copy
import dataclasses
import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmuplan.estimation as estimation
from pmuplan.cases import load_case
from pmuplan.estimation import StateScope, UnobservableStateError, metric_function, placement_metric
from pmuplan.measurements import ChannelLimitError, PmuPlacement, _union, greedy_observable_cover
from pmuplan.network import NetworkCase, neighbors
from pmuplan.submodularity import AuditAbortedError, MetricEvaluationError, audit, enumerate_triples

IEEE14 = load_case("ieee14")
IEEE118 = load_case("ieee118")
COVER118 = greedy_observable_cover(IEEE118, channel_limit=8).buses
# ieee14 listing its buses and branches in reverse: positions descend by id
FLIPPED14 = NetworkCase("flipped", IEEE14.buses[::-1], IEEE14.branches[::-1])


def _mask(case, ids):
    return sum(case.position_bits[bus] for bus in ids)


def _outcome(call, *args, **kwargs):
    """A call's value, floats by their bits, or its error's type and message."""
    try:
        value = call(*args, **kwargs)
    except (KeyError, ValueError, TypeError) as err:
        return type(err), str(err)
    return value.hex() if isinstance(value, float) else value


@st.composite
def masks(draw, case):
    """A mask of the case's position bits, of any size, nearly full included."""
    n = len(case.buses)
    size = draw(st.one_of(st.integers(0, n), st.integers(n - 3, n)))
    return sum(1 << p for p in draw(st.permutations(range(n)))[:size])


@st.composite
def settings_of(draw, case):
    most = case._max_degree
    return dict(
        scope=draw(st.sampled_from(list(StateScope))),
        dedupe=draw(st.sampled_from(["by-branch", "per-end"])),
        # below the largest degree some buses cannot host; at or above it all can
        channel_limit=draw(st.sampled_from([1, most - 1, most, most + 3])),
        gain=draw(st.booleans()),
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_f_scores_a_mask_as_the_frozenset_of_its_ids(data):
    case = data.draw(st.sampled_from([IEEE14, IEEE118, FLIPPED14]), label="case")
    kw = data.draw(settings_of(case), label="settings")
    mask = data.draw(masks(case), label="mask")
    ids = frozenset(case.buses_in(mask))
    f = metric_function(case, **kw)
    assert _outcome(f, mask) == _outcome(f, ids)
    # the accumulator's mask path against its id path, on both sides of its
    # rules, and onto a start, which keeps a mask on the bus-by-bus loop
    for closed in (False, True):
        expected = _outcome(_union, case, tuple(sorted(ids)), kw["dedupe"], kw["channel_limit"],
                            closed)
        args = (kw["dedupe"], kw["channel_limit"], closed)
        assert _outcome(_union, case, mask, *args) == expected
        assert _outcome(_union, case, ids, *args) == expected
        start = (3, 0b1011, 0b110 if closed else 0)
        onto = _outcome(_union, case, mask, *args, start)
        if isinstance(expected[0], type):
            assert onto == expected
        else:
            k, metered, observed = expected
            assert onto == (k + 3, metered | start[1], observed | start[2])


@pytest.mark.parametrize("case", [IEEE14, IEEE118, FLIPPED14], ids=lambda c: c.name)
@pytest.mark.parametrize("scope", list(StateScope))
@pytest.mark.parametrize("dedupe", ["by-branch", "per-end"])
def test_f_raises_on_a_mask_as_on_its_ids(case, scope, dedupe):
    n = len(case.buses)
    everyone = (1 << n) - 1
    most = case._max_degree
    busiest = sorted(bus for bus, row in case.incidence.items() if row[1] == most)
    f = metric_function(case, scope=scope, dedupe=dedupe, channel_limit=most)
    tight = metric_function(case, scope=scope, dedupe=dedupe, channel_limit=most - 1)
    leaf = next(bus for bus, row in case.incidence.items() if row[1] == 1)
    cases = [
        (f, 0, ValueError),  # empty
        (tight, everyone, ChannelLimitError),  # every bus, the busiest over the limit
        (tight, _mask(case, busiest), ChannelLimitError),  # the busiest alone
    ]
    if scope is StateScope.FULL:
        cases.append((f, _mask(case, [leaf]), UnobservableStateError))
        cases.append((f, _mask(case, set(case.bus_ids) - {leaf} - neighbors(case, leaf)),
                      UnobservableStateError))
    for metric, mask, kind in cases:
        got = _outcome(metric, mask)
        assert got == _outcome(metric, frozenset(case.buses_in(mask)))
        assert got[0] is kind
    # the smallest over-limit id is named, whatever the positions
    assert _outcome(tight, everyone)[1].startswith(f"bus {busiest[0]} has {most} incident")
    # a negative mask, or one with a bit at or past position N, is no placement
    for bad in (-1, -everyone, 1 << n, everyone + (1 << n), 1 << 4 * n):
        message = (f"placement mask {bad} has bits outside the {n} bus positions "
                   f"of case {case.name!r}")
        for metric in (f, tight):
            assert _outcome(metric, bad) == (ValueError, message)
            assert _outcome(_union, case, bad, dedupe, most) == (ValueError, message)
    # a bool is no mask: f raises what it raises at the constructor
    for flag in (True, False):
        with pytest.raises(TypeError, match="'bool' object is not iterable"):
            f(flag)


def _mask_placement(f, mask):
    """The placement f hands placement_metric for ``mask``."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "placement_metric",
                      lambda case, placement, **kw: seen.append(placement) or 0.0)
        f(mask)
    (placement,) = seen
    return placement


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_mask_placement_is_the_placement_of_its_ids(data):
    """Read or not, the mask form equals, hashes, prints, pickles at every
    protocol and copies as the placement built from its ids."""
    case = data.draw(st.sampled_from([IEEE14, IEEE118, FLIPPED14]), label="case")
    mask = data.draw(masks(case), label="mask")
    limit = data.draw(st.integers(1, 12), label="limit")
    read = data.draw(st.sampled_from([None, "buses", "bus_set"]), label="read first")
    f = metric_function(case, channel_limit=limit)
    ids = frozenset(case.buses_in(mask))
    reference = PmuPlacement(ids, limit)

    def fresh():
        placement = _mask_placement(f, mask)
        if read is not None:
            getattr(placement, read)
        return placement

    placement = fresh()
    state = vars(placement)
    assert (state["_mask"], state["channel_limit"]) == (mask, limit)
    assert ("bus_set" in state) == (read is not None) and ("buses" in state) == (read == "buses")
    assert placement.bus_set == ids and placement.buses == reference.buses
    assert placement.bus_set is placement.bus_set and placement.buses is placement.buses

    assert fresh() == reference and reference == fresh()
    assert hash(fresh()) == hash(reference)
    assert repr(fresh()) == repr(reference)
    assert len(fresh()) == len(ids)
    value = _outcome(placement_metric, case, reference)
    assert _outcome(placement_metric, case, fresh()) == value
    twins = [pickle.loads(pickle.dumps(fresh(), protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins += [copy.copy(fresh()), copy.deepcopy(fresh()), dataclasses.replace(fresh())]
    for twin in twins:
        assert twin == reference and hash(twin) == hash(reference)
        assert twin.bus_set == ids and twin.buses == reference.buses
        assert _outcome(placement_metric, case, twin) == value
    assert dataclasses.replace(fresh(), channel_limit=limit + 1) == PmuPlacement(ids, limit + 1)
    assert dataclasses.asdict(fresh()) == dataclasses.asdict(reference)
    frozen = fresh()
    for name in ("buses", "channel_limit", "bus_set"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frozen, name, ())
    assert frozen == reference


def test_a_mask_placement_is_counted_by_its_ids_on_another_case():
    """placement_metric reads the mask only for the case whose ids it was
    made with; on an equal case listing its buses in another order, the
    same bits name other buses, and the placement is counted by its ids."""
    f = metric_function(IEEE14)
    ids = (2, 6, 7, 9)
    placement = _mask_placement(f, _mask(IEEE14, ids))
    assert _mask(IEEE14, ids) != _mask(FLIPPED14, ids)
    assert placement_metric(FLIPPED14, placement) == placement_metric(FLIPPED14, PmuPlacement(ids))
    assert placement_metric(IEEE14, placement) == f(frozenset(ids)) == 0.7777777777777778


def test_rows_by_position_are_the_incidence_rows():
    for case in (IEEE14, IEEE118, FLIPPED14):
        assert len(case._rows) == len(case.buses)
        for bus, row in zip(case._ids, case._rows):
            assert row is case.incidence[bus]
        assert case._ids == tuple(bus.id for bus in case.buses) == case.bus_ids


# ---- the audit: shared metrics take masks, opaque ones frozensets -----------


def _audit_outcome(run):
    try:
        return run().to_dict()
    except AuditAbortedError as err:
        cause = err.__cause__
        assert isinstance(cause, MetricEvaluationError) and type(cause.placement) is frozenset
        return ("aborted", err.processed, err.partial.to_dict(), cause.triple, cause.placement,
                repr(cause.__cause__))


@st.composite
def audit_inputs(draw):
    """An ieee14 or ieee118 audit of at most eight free buses, its settings,
    a start/stop slice and a counterexample cap."""
    case = draw(st.sampled_from([IEEE14, IEEE118]))
    ids = sorted(case.bus_ids)
    if case is IEEE118:
        free = draw(st.lists(st.sampled_from([b for b in ids if b not in COVER118]),
                             min_size=1, max_size=8, unique=True))
        nu = tuple(b for b in ids if b not in free)
    else:
        nu = tuple(draw(st.permutations(ids))[:draw(st.integers(6, 13))])
    a_size = draw(st.integers(len(nu), len(ids) - 1))
    b_size = draw(st.integers(a_size, len(ids) - 1))
    kw = draw(settings_of(case))
    start = draw(st.integers(0, 200))
    stop = draw(st.one_of(st.none(), st.integers(0, 400)))
    cap = draw(st.integers(0, 5))
    return case, nu, a_size, b_size, kw, dict(start=start, stop=stop, counterexample_cap=cap)


@settings(max_examples=120, deadline=None)
@given(audit_inputs())
def test_a_shared_metric_audits_as_an_opaque_one(inputs):
    case, nu, a_size, b_size, kw, run = inputs
    f = metric_function(case, **kw)
    opaque = _audit_outcome(lambda: audit(case, lambda p: f(p), nu, a_size, b_size, **run))
    assert _audit_outcome(lambda: audit(case, f, nu, a_size, b_size, **run)) == opaque
    # and again over the warm tables
    assert _audit_outcome(lambda: audit(case, f, nu, a_size, b_size, **run)) == opaque


@pytest.mark.parametrize("a_size, b_size, run", [
    (116, 117, {}),
    (116, 117, dict(start=1000, stop=4500, counterexample_cap=7)),
    (115, 116, dict(start=200_000, stop=206_000, counterexample_cap=1000)),
])
@pytest.mark.parametrize("scope", list(StateScope))
def test_ieee118_audits_alike_by_mask_and_by_frozenset(a_size, b_size, run, scope):
    f = metric_function(IEEE118, scope=scope, channel_limit=16, gain=True)
    opaque = audit(IEEE118, lambda p: f(p), COVER118, a_size, b_size, **run).to_dict()
    assert audit(IEEE118, f, COVER118, a_size, b_size, **run).to_dict() == opaque
    assert opaque["supermodular"] > 0 and opaque["counterexamples"]


def test_the_ci_abort_case_aborts_alike_by_mask_and_by_frozenset():
    """``submod audit --scope full --nu 6,7,9 --a-size 11 --b-size 12``
    aborts after 714 of 990 triples either way."""
    f = metric_function(IEEE14, scope=StateScope.FULL, gain=True)
    outcomes = [_audit_outcome(lambda: audit(IEEE14, metric, (6, 7, 9), 11, 12))
                for metric in (f, lambda p: f(p))]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == ("aborted", 714)
    assert outcomes[0][5].startswith("UnobservableStateError")


@pytest.mark.parametrize("case, nu, a_size, b_size, limit", [
    (IEEE14, (2, 6, 7, 9), 12, 13, 8),
    (IEEE118, COVER118, 116, 117, 16),
])
def test_placement_metric_is_called_once_per_unique_placement(monkeypatch, case, nu, a_size,
                                                              b_size, limit):
    """A counter on placement_metric, as a tracer installs one, sees each
    unique placement of the triple stream once, as a mask it never decodes."""
    seen = []
    counted = estimation.placement_metric
    monkeypatch.setattr(estimation, "placement_metric", lambda c, placement, **kw: (
        seen.append(placement) or counted(c, placement, **kw)))
    f = metric_function(case, gain=True, channel_limit=limit)
    traced = functools.wraps(f)(lambda placement: f(placement))
    audit(case, traced, nu, a_size, b_size)
    unique = {frozenset(p) for t in enumerate_triples(case.bus_ids, nu, a_size, b_size)
              for p in (t.a, t.a + (t.s,), t.b, t.b + (t.s,))}
    assert len(seen) == len(unique) == len(f.scores)
    assert all(set(vars(p)) == {"channel_limit", "_mask", "_ids"} for p in seen)
    assert {frozenset(case.buses_in(vars(p)["_mask"])) for p in seen} == unique
