import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from pmuplan.cases import load_case
from pmuplan.estimation import placement_metric
from pmuplan.knapsack import KnapsackInstance, greedy_solve, optimal_solve
from pmuplan.linalg import enumerate_channels, sensitivity_report
from pmuplan.measurements import PmuPlacement
from pmuplan.submodularity import (
    MarginClass,
    SubsetTriple,
    classify_triple,
    count_combinations,
    enumerate_triples,
)


@st.composite
def triple_sizes(draw):
    omega = draw(st.integers(min_value=1, max_value=9))
    nu = draw(st.integers(min_value=0, max_value=omega - 1))
    a = draw(st.integers(min_value=nu, max_value=omega - 1))
    b = draw(st.integers(min_value=a, max_value=omega - 1))
    return omega, nu, a, b


@settings(max_examples=60)
@given(triple_sizes())
def test_enumeration_length_matches_count(sizes):
    omega, nu, a, b = sizes
    universe = range(1, omega + 1)
    base = range(1, nu + 1)
    triples = list(enumerate_triples(universe, base, a, b))
    assert len(triples) == count_combinations(omega, nu, a, b)
    assert len({t.sort_key() for t in triples}) == len(triples)


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    values = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 15), min_size=n, max_size=n))
    return KnapsackInstance(
        values=tuple(float(v) for v in values),
        weights=tuple(float(w) for w in weights),
    )


@settings(max_examples=80)
@given(instances(), st.floats(min_value=0.0, max_value=120.0, allow_nan=False))
def test_exhaustive_solver_is_optimal_and_beats_greedy(inst, budget):
    _, best = optimal_solve(inst, budget)
    brute = 0.0
    for r in range(1, inst.n + 1):
        for combo in itertools.combinations(range(inst.n), r):
            if sum(inst.weights[i] for i in combo) <= budget:
                brute = max(brute, sum(inst.values[i] for i in combo))
    assert best == brute
    _, committed = greedy_solve(inst, budget)
    assert committed <= best


@settings(max_examples=60)
@given(instances(), st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=0.0, max_value=60.0))
def test_greedy_picks_grow_with_budget(inst, b1, b2):
    lo, hi = sorted((b1, b2))
    small, _ = greedy_solve(inst, lo)
    large, _ = greedy_solve(inst, hi)
    assert large[: len(small)] == small


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_margin_verdict_is_affine_invariant(seed, scale, shift):
    f = lambda q: float(sum(hash((seed, x)) % 97 for x in q))
    g = lambda q: scale * f(q) + shift
    t = SubsetTriple(a=(1, 2), b=(1, 2, 3, 5), s=8)
    assert classify_triple(f, t).verdict == classify_triple(g, t).verdict


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=14), min_size=1, max_size=14))
def test_accuracy_score_matches_branch_count_form(ieee14, buses):
    case = ieee14
    q = set(buses)
    touching = sum(1 for br in case.branches if br.from_bus in q or br.to_bus in q)
    expected = touching / (len(q) + touching)
    got = placement_metric(case, PmuPlacement.of(q))
    assert abs(got - expected) <= 1e-12


CASES = {name: load_case(name) for name in ("ieee14", "ieee118")}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.sampled_from(["by-branch", "per-end"]), st.data())
def test_added_bus_lowers_the_pmu_score_iff_it_meters_few_branches(name, dedupe, data):
    # In pmu-state scope the score is br/(|Q| + br), br(Q) the metered
    # branches (branch ends under per-end). Adding s raises br by d(s|Q), and
    # (br + d)/(|Q| + 1 + br + d) < br/(|Q| + br) exactly when d*|Q| < br.
    case = CASES[name]
    ids = sorted(case.bus_ids)
    q = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6, unique=True))
    s = data.draw(st.sampled_from([b for b in ids if b not in q]))

    def placement(buses):
        return PmuPlacement.of(buses, channel_limit=64)

    def metered(buses):
        # counted from the explicit channel list, not the score's own counts
        channels = enumerate_channels(case, placement(buses), dedupe=dedupe)
        return (len(channels) - 2 * len(buses)) // 2

    br = metered(q)
    d = metered(q + [s]) - br
    before = placement_metric(case, placement(q), dedupe=dedupe)
    after = placement_metric(case, placement(q + [s]), dedupe=dedupe)
    assert (after < before) == (d * len(q) < br)
    assert (after == before) == (d * len(q) == br)


@settings(max_examples=30, deadline=None)
@given(
    st.sets(st.integers(min_value=1, max_value=14), min_size=1, max_size=14),
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
)
def test_uniform_noise_rescaling_leaves_score_alone(ieee14, buses, sigma):
    placement = PmuPlacement.of(buses)
    base = placement_metric(ieee14, placement)
    scaled = sensitivity_report(ieee14, placement, sigma_v=sigma, sigma_i=sigma)
    assert abs(base - scaled.average) <= 1e-10


@settings(max_examples=40)
@given(st.sets(st.integers(min_value=1, max_value=9), min_size=2, max_size=6))
def test_squared_cardinality_margins(probe_free):
    # textbook diminishing returns: growth of -|Q|^2 slows as Q grows
    f = lambda q: -float(len(q) ** 2)
    members = sorted(probe_free)
    s = members[-1]
    rest = tuple(members[:-1])
    for cut in range(len(rest)):
        t = SubsetTriple(a=rest[:cut], b=rest, s=s)
        assert classify_triple(f, t).verdict == MarginClass.SUBMODULAR
    equal = SubsetTriple(a=rest, b=rest, s=s)
    assert classify_triple(f, equal).verdict == MarginClass.TIE
