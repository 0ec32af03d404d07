"""metric_function's batch scorer against the frozenset path it replaces.

The planners score a metric that carries a scorer in batches, from unions
of the bus masks in ``NetworkCase.incidence``: greedy makes one call per
stage, the exhaustive planner one per (k-1)-prefix of the free buses. A
plain function that calls the same metric hides the scorer and sends every
placement through the frozenset path, which is the oracle here: both must
give the same results, bit for bit, and fail at the same place with the
same exception. So must the planners' simplest statement, one metric call
per candidate, in ``_reference_greedy`` and ``_reference_budget``.
"""

import functools
import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmuplan.estimation
from pmuplan.cases import load_case
from pmuplan.estimation import StateScope, UnobservableStateError, metric_function
from pmuplan.measurements import DEFAULT_CHANNEL_LIMIT
from pmuplan.network import Branch, Bus, NetworkCase
from pmuplan.planner import (
    CandidateEvaluationError,
    PriorityList,
    StageResult,
    budget_constrained_plan,
    greedy_plan,
)

IEEE14 = load_case("ieee14")
TIE_TOLS = (0.0, 1e-9, 0.01)


def _plain(metric):
    """The same set function without the scorer."""
    return lambda placement: metric(placement)


def counted(metric, calls):
    """A ``functools.wraps`` wrapper, as a tracer installs one: it carries
    the scorer over and records every call on a frozenset."""

    @functools.wraps(metric)
    def wrapper(placement):
        calls.append(placement)
        return metric(placement)

    return wrapper


def _evaluate(metric, stage, placement, candidate):
    try:
        return float(metric(placement))
    except Exception as exc:
        raise CandidateEvaluationError(stage, candidate) from exc


def _reference_greedy(case, nu, metric, stages, tie_tol):
    """One metric call per candidate, in ascending id order."""
    current = frozenset(nu)
    free = sorted(set(case.bus_ids) - current)
    order, values = [], []
    for stage in range(1, stages + 1):
        scored = [(c, _evaluate(metric, stage, current | {c}, c))
                  for c in free if c not in order]
        vmin = min(v for _, v in scored)
        winner, value = next((c, v) for c, v in scored if v <= vmin + tie_tol)
        order.append(winner)
        values.append(value)
        current |= {winner}
    return PriorityList(base=tuple(sorted(set(nu))), order=tuple(order),
                        stage_values=tuple(values))


def _reference_budget(case, nu, metric, k, tie_tol):
    """One metric call per k-subset; the first, in itertools.combinations
    order, within tie_tol of the minimum wins."""
    base = frozenset(nu)
    free = sorted(set(case.bus_ids) - base)
    scored = [(combo, _evaluate(metric, k, base | set(combo), combo))
              for combo in itertools.combinations(free, k)]
    vmin = min(v for _, v in scored)
    winner, value = next((c, v) for c, v in scored if v <= vmin + tie_tol)
    return StageResult(stage=k, selected=winner, metric_value=value)


@st.composite
def cases(draw):
    """A connected case on scattered bus ids listed out of order, with
    parallel branches, so that degrees spread over the channel limits."""
    ids = draw(st.lists(st.integers(1, 60), min_size=2, max_size=9, unique=True))
    branches = [
        Branch(ids[draw(st.integers(0, i - 1))], ids[i], 0.0, 0.5) for i in range(1, len(ids))
    ]
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    branches += [Branch(u, v, 0.0, 0.25) for u, v in draw(st.lists(pairs, max_size=8))]
    return NetworkCase(name="random", buses=tuple(Bus(i) for i in ids), branches=tuple(branches))


def _plan_outcome(run):
    try:
        return run()
    except CandidateEvaluationError as err:
        return ("failed", err.stage, err.candidate, repr(err.__cause__))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.just(IEEE14), cases()), st.data())
def test_mask_planners_match_the_frozenset_planners(case, data):
    """In both scopes, under both dedupe policies and at every tie
    tolerance. Small channel limits leave some buses unable to host, so
    that some metrics have no scorer and every candidate goes to the set
    function, and some plans fail there."""
    limit = data.draw(st.one_of(st.just(64), st.sampled_from([1, 2, 3, 4])))
    gain = data.draw(st.booleans())
    ids = sorted(case.bus_ids)
    nu = data.draw(st.permutations(ids))[: data.draw(st.integers(0, len(ids) - 1))]
    free = len(ids) - len(nu)
    stages = data.draw(st.integers(0, min(free, 4)))
    k = data.draw(st.integers(1, min(free, 4)))
    for scope, dedupe, tie_tol in itertools.product(StateScope, ("by-branch", "per-end"),
                                                    TIE_TOLS):
        metric = metric_function(case, scope=scope, dedupe=dedupe, channel_limit=limit,
                                 gain=gain)
        for plan, reference in (
            (lambda f: greedy_plan(case, nu, f, stages, tie_tol=tie_tol),
             lambda f: _reference_greedy(case, nu, f, stages, tie_tol)),
            (lambda f: budget_constrained_plan(case, nu, f, k, tie_tol=tie_tol),
             lambda f: _reference_budget(case, nu, f, k, tie_tol)),
        ):
            calls = []
            got = _plan_outcome(lambda: plan(counted(metric, calls)))
            # dataclass equality compares the float values exactly
            assert got == _plan_outcome(lambda: plan(_plain(metric)))
            assert got == _plan_outcome(lambda: reference(metric))
            if not isinstance(got, tuple):
                assert calls == []


@pytest.mark.parametrize("tie_tol", TIE_TOLS)
@pytest.mark.parametrize("scope", list(StateScope))
@pytest.mark.parametrize("dedupe", ["by-branch", "per-end"])
def test_mask_planners_match_the_reference_on_ieee14(ieee14, scope, dedupe, tie_tol):
    """Every stage of both planners over the README base, where the wider
    tie band joins values the narrower ones keep apart."""
    nu = (2, 6, 7, 9)
    metric = metric_function(ieee14, scope=scope, dedupe=dedupe)
    assert (greedy_plan(ieee14, nu, metric, 10, tie_tol=tie_tol)
            == _reference_greedy(ieee14, nu, metric, 10, tie_tol))
    for k in range(1, 11):
        assert (budget_constrained_plan(ieee14, nu, metric, k, tie_tol=tie_tol)
                == _reference_budget(ieee14, nu, metric, k, tie_tol))


@pytest.mark.parametrize("scope", list(StateScope))
@pytest.mark.parametrize("dedupe", ["by-branch", "per-end"])
def test_mask_planners_never_build_a_placement(monkeypatch, ieee14, scope, dedupe):
    """Successful plans score every candidate from masks: the metric's own
    frozenset path, and so placement_metric, is never reached."""
    metric = metric_function(ieee14, scope=scope, dedupe=dedupe)
    calls = []
    real = pmuplan.estimation.placement_metric
    monkeypatch.setattr(pmuplan.estimation, "placement_metric",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    greedy_plan(ieee14, (2, 6, 7, 9), metric, 10)
    budget_constrained_plan(ieee14, (2, 6, 7, 9), metric, 3)
    assert calls == []
    # the frozenset path itself still scores through placement_metric
    metric(frozenset((2, 6, 7, 9)))
    assert len(calls) == 1


def test_planners_make_one_scorer_call_per_stage_or_prefix(ieee14):
    """Greedy keeps one scorer for the plan and calls it once a stage; the
    exhaustive planner calls it once per (k-1)-prefix with a non-empty
    tail, C(free - 1, k - 1) times, never more than the C(free, k) subsets
    the enumeration cap counts."""
    metric = metric_function(ieee14)
    made, calls = [], []

    def scorer(base):
        made.append(tuple(base))
        score = metric.scorer(base)
        return lambda added, candidates: calls.append(len(candidates)) or score(added, candidates)

    def with_scorer(placement):
        return metric(placement)

    with_scorer.scorer = scorer
    nu = (2, 6, 7, 9)
    greedy_plan(ieee14, nu, with_scorer, 10)
    assert made == [nu]
    assert calls == list(range(10, 0, -1))
    for k in range(1, 11):
        made.clear()
        calls.clear()
        budget_constrained_plan(ieee14, nu, with_scorer, k)
        assert made == [nu]
        assert len(calls) == comb(9, k - 1) <= comb(10, k)
        assert sum(calls) == comb(10, k)


def test_exhaustive_candidates_come_in_combinations_order(ieee14):
    """Without a scorer the metric sees every k-subset, each once, in
    itertools.combinations(free, k) order; the first that fails is the one
    the error names."""
    nu = frozenset((2, 6, 7, 9))
    free = sorted(set(ieee14.bus_ids) - nu)
    metric = metric_function(ieee14)
    for k in (1, 2, 3):
        calls = []
        budget_constrained_plan(ieee14, nu, counted(_plain(metric), calls), k)
        assert calls == [nu | set(c) for c in itertools.combinations(free, k)]
    failing = metric_function(ieee14, channel_limit=4)  # bus 4 has 5 branches
    with pytest.raises(CandidateEvaluationError) as err:
        budget_constrained_plan(ieee14, nu, failing, 2)
    assert err.value.candidate == (1, 4)
    assert "bus 4" in str(err.value.__cause__)


def _scorer_agrees(metric, base, added, candidates):
    """Each candidate's value is f's float on base + added + that candidate,
    bit for bit, where f returns, and None exactly where f finds the
    placement unobservable."""
    got = metric.scorer(base)(added, candidates)
    assert len(got) == len(candidates)
    for bus, value in zip(candidates, got):
        try:
            want = metric(frozenset(base) | frozenset(added) | {bus})
        except UnobservableStateError:
            assert value is None
        else:
            assert value is not None and value.hex() == want.hex()


def _hosts_every_bus(case, dedupe, limit):
    return (dedupe in ("by-branch", "per-end") and limit >= 1
            and all(len(case.incident_branches(b)) <= limit for b in case.bus_ids))


@pytest.mark.parametrize("scope", list(StateScope))
@pytest.mark.parametrize("dedupe", ["by-branch", "per-end"])
@pytest.mark.parametrize("channel_limit", [None, 5])
def test_scorer_values_equal_the_frozenset_values(ieee14, scope, dedupe, channel_limit):
    """Over every other bus as a candidate, on top of at most two buses
    given as the base or as added, and on top of the core; 5 is the degree
    of bus 4, the largest."""
    for gain in (False, True):
        metric = metric_function(ieee14, scope=scope, dedupe=dedupe,
                                 channel_limit=channel_limit, gain=gain)
        assert sorted(vars(metric)) == ["case", "margins", "scorer", "scores"]
        buses = ieee14.bus_ids
        for r in range(3):
            for added in itertools.combinations(buses, r):
                rest = [b for b in buses if b not in added]
                _scorer_agrees(metric, (), added, rest)
                _scorer_agrees(metric, added, (), rest)
        core = (2, 6, 7, 9)
        rest = sorted(set(buses) - set(core))
        for added in itertools.combinations(rest, 2):
            _scorer_agrees(metric, core, added, [b for b in rest if b not in added])
        assert metric.scorer(core)((), []) == []


@pytest.mark.parametrize("scope", list(StateScope))
def test_scorer_names_the_first_unknown_bus_by_id(ieee14, scope):
    """The base and ``added`` are validated as a placement is, whatever
    their order: the error names the smallest unknown id."""
    metric = metric_function(ieee14, scope=scope)
    with pytest.raises(KeyError, match="placement bus 98 not in case"):
        metric.scorer([99, 2, 98])
    score = metric.scorer([2, 6])
    with pytest.raises(KeyError, match="placement bus 97 not in case"):
        score([99, 7, 97], [9])


@pytest.mark.parametrize("scope", list(StateScope))
@pytest.mark.parametrize("dedupe", ["by-branch", "per-end", "bogus"])
@pytest.mark.parametrize("channel_limit", [None, 5, 4, 1, 0])
def test_scorer_is_none_exactly_where_a_bus_cannot_host(ieee14, scope, dedupe, channel_limit):
    """No scorer under an invalid dedupe, a limit of 0 or a limit below the
    largest degree, where f raises on some placement of the case."""
    limit = DEFAULT_CHANNEL_LIMIT if channel_limit is None else channel_limit
    for gain in (False, True):
        metric = metric_function(ieee14, scope=scope, dedupe=dedupe,
                                 channel_limit=channel_limit, gain=gain)
        assert sorted(vars(metric)) == ["case", "margins", "scorer", "scores"]
        hostable = dedupe != "bogus" and limit >= 5
        assert _hosts_every_bus(ieee14, dedupe, limit) == hostable
        assert (metric.scorer is not None) == hostable
        if not hostable:
            # bus 4 has 5 branches; a bogus dedupe fails every placement
            with pytest.raises(ValueError):
                metric(frozenset((4,) if dedupe != "bogus" else (1,)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(IEEE14), cases()), st.data())
def test_scorer_values_equal_the_frozenset_values_on_drawn_cases(case, data):
    dedupe = data.draw(st.sampled_from(["by-branch", "per-end", "bogus"]))
    limit = data.draw(st.sampled_from([0, 1, 2, 3, 4, 64]))
    metric = metric_function(
        case,
        scope=data.draw(st.sampled_from(list(StateScope))),
        dedupe=dedupe,
        channel_limit=limit,
        gain=data.draw(st.booleans()),
    )
    assert (metric.scorer is not None) == _hosts_every_bus(case, dedupe, limit)
    if metric.scorer is not None:
        buses = data.draw(st.permutations(case.bus_ids))
        cut = data.draw(st.integers(0, len(buses)))
        end = data.draw(st.integers(cut, len(buses)))
        _scorer_agrees(metric, buses[:cut], buses[cut:end], buses[end:])


@pytest.mark.parametrize("scope", list(StateScope))
def test_scorer_scores_no_isolated_bus_under_a_zero_limit(scope):
    """A bus with no branch is within any limit but 0, where f raises on
    every placement: there is no scorer at 0, and at 1 it scores all."""
    case = NetworkCase(name="isolated", buses=(Bus(1), Bus(2), Bus(3)),
                       branches=(Branch(1, 2, 0.0, 0.5),))
    assert metric_function(case, scope=scope, channel_limit=0).scorer is None
    metric = metric_function(case, scope=scope, channel_limit=1)
    for r in range(3):
        for base in itertools.combinations((1, 2, 3), r):
            rest = [b for b in (1, 2, 3) if b not in base]
            _scorer_agrees(metric, base, (), rest)
            _scorer_agrees(metric, (), base, rest)
