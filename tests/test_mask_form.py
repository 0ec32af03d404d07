"""metric_function's incremental scorer against the frozenset path it replaces.

The planners score a metric that carries a scorer from unions of the bus
masks in ``NetworkCase.incidence``. A plain function that calls the same
metric hides the scorer and sends every placement through the frozenset
path, which is the oracle here: both must give the same results, bit for
bit, and fail at the same place with the same exception.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmuplan.estimation
from pmuplan.cases import load_case
from pmuplan.estimation import StateScope, metric_function
from pmuplan.network import Branch, Bus, NetworkCase
from pmuplan.planner import CandidateEvaluationError, budget_constrained_plan, greedy_plan

IEEE14 = load_case("ieee14")


def plain(metric):
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


@st.composite
def metrics(draw):
    """A case and a metric on it in either scope, dedupe policy and
    orientation; small channel limits leave some buses unable to host."""
    case = draw(st.one_of(st.just(IEEE14), cases()))
    metric = metric_function(
        case,
        scope=draw(st.sampled_from(list(StateScope))),
        dedupe=draw(st.sampled_from(["by-branch", "per-end"])),
        channel_limit=draw(st.sampled_from([1, 2, 3, 4, 64])),
        gain=draw(st.booleans()),
    )
    return case, metric


def _plan_outcome(run):
    try:
        return run()
    except CandidateEvaluationError as err:
        return ("failed", err.stage, err.candidate, repr(err.__cause__))


@settings(max_examples=200, deadline=None)
@given(metrics(), st.data())
def test_mask_planners_match_the_frozenset_planners(setup, data):
    case, metric = setup
    ids = sorted(case.bus_ids)
    nu = data.draw(st.permutations(ids))[: data.draw(st.integers(0, len(ids) - 1))]
    free = len(ids) - len(nu)
    stages = data.draw(st.integers(0, min(free, 4)))
    k = data.draw(st.integers(1, min(free, 3)))
    for run in (
        lambda f: greedy_plan(case, nu, f, stages),
        lambda f: budget_constrained_plan(case, nu, f, k),
    ):
        calls = []
        got = _plan_outcome(lambda: run(counted(metric, calls)))
        # dataclass equality compares the float values exactly
        assert got == _plan_outcome(lambda: run(plain(metric)))
        if not isinstance(got, tuple):
            assert calls == []


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


def _scorer_agrees(metric, base, added):
    """The scorer returns f's float, bit for bit, where f returns, and None
    exactly where f raises."""
    got = metric.scorer(base)(tuple(added))
    try:
        want = metric(frozenset(base) | frozenset(added))
    except (KeyError, ValueError):
        assert got is None
    else:
        assert got is not None and got.hex() == want.hex()


@pytest.mark.parametrize("scope", list(StateScope))
@pytest.mark.parametrize("dedupe", ["by-branch", "per-end", "bogus"])
@pytest.mark.parametrize("channel_limit", [None, 4, 0])
def test_scorer_values_equal_the_frozenset_values(ieee14, scope, dedupe, channel_limit):
    """On every placement of at most three buses, alone and on top of the
    core, over the unknown bus 99 too; bus 4 is over a limit of 4."""
    for gain in (False, True):
        metric = metric_function(ieee14, scope=scope, dedupe=dedupe,
                                 channel_limit=channel_limit, gain=gain)
        assert sorted(vars(metric)) == ["case", "scorer", "scores"]
        buses = (*ieee14.bus_ids, 99)
        for r in range(4):
            for added in itertools.combinations(buses, r):
                _scorer_agrees(metric, (), added)
                _scorer_agrees(metric, added, ())
        core = (2, 6, 7, 9)
        for r in range(3):
            for added in itertools.combinations(sorted(set(buses) - set(core)), r):
                _scorer_agrees(metric, core, added)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(IEEE14), cases()), st.data())
def test_scorer_values_equal_the_frozenset_values_on_drawn_cases(case, data):
    metric = metric_function(
        case,
        scope=data.draw(st.sampled_from(list(StateScope))),
        dedupe=data.draw(st.sampled_from(["by-branch", "per-end", "bogus"])),
        channel_limit=data.draw(st.sampled_from([0, 1, 2, 3, 4, 64])),
        gain=data.draw(st.booleans()),
    )
    # bus 0 is never in a case
    buses = data.draw(st.permutations((*case.bus_ids, 0)))
    cut = data.draw(st.integers(0, len(buses)))
    end = data.draw(st.integers(cut, len(buses)))
    _scorer_agrees(metric, buses[:cut], buses[cut:end])


@pytest.mark.parametrize("scope", list(StateScope))
def test_scorer_scores_no_isolated_bus_under_a_zero_limit(scope):
    """A bus with no branch is within any limit but 0, where f raises on
    every placement; the scorer leaves those to f too."""
    case = NetworkCase(name="isolated", buses=(Bus(1), Bus(2), Bus(3)),
                       branches=(Branch(1, 2, 0.0, 0.5),))
    for limit in (0, 1):
        metric = metric_function(case, scope=scope, channel_limit=limit)
        for r in range(4):
            for base in itertools.combinations((1, 2, 3), r):
                _scorer_agrees(metric, base, ())
