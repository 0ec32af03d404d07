import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmuplan.cases import load_case
from pmuplan.estimation import StateScope, metric_function
from pmuplan.network import Branch, Bus, NetworkCase
from pmuplan.planner import (
    CandidateEvaluationError,
    ComparisonRow,
    EnumerationCapError,
    PriorityList,
    StageResult,
    budget_constrained_plan,
    compare_plans,
    greedy_plan,
)

NU = (2, 6, 7, 9)

# frozen from the branch-counting closed form avg = br(Q) / (|Q| + br(Q)):
# each stage value below was computed by hand from the 14-bus line list
GREEDY_ORDER = (8, 1, 3, 4, 5, 10, 11, 12, 13, 14)
GREEDY_VALUES = (
    Fraction(14, 19),
    Fraction(5, 7),
    Fraction(16, 23),
    Fraction(17, 25),
    Fraction(17, 26),
    Fraction(9, 14),
    Fraction(18, 29),
    Fraction(19, 31),
    Fraction(20, 33),
    Fraction(10, 17),
)
BUDGET_SETS = (
    (8,),
    (1, 8),
    (8, 10, 11),
    (1, 8, 10, 11),
    (1, 3, 4, 5, 8),
    (8, 10, 11, 12, 13, 14),
    (1, 3, 4, 5, 8, 10, 11),
    (1, 3, 4, 5, 8, 10, 11, 12),
    (1, 3, 4, 5, 8, 10, 11, 12, 13),
    (1, 3, 4, 5, 8, 10, 11, 12, 13, 14),
)
BUDGET_VALUES = (
    Fraction(14, 19),
    Fraction(5, 7),
    Fraction(15, 22),
    Fraction(2, 3),
    Fraction(17, 26),
    Fraction(17, 27),
    Fraction(18, 29),
    Fraction(19, 31),
    Fraction(20, 33),
    Fraction(10, 17),
)


@pytest.fixture
def score(ieee14):
    return metric_function(ieee14)


def test_greedy_reference_plan(ieee14, score):
    plan = greedy_plan(ieee14, NU, score, stages=10)
    assert plan.base == NU
    assert plan.order == GREEDY_ORDER
    for got, want in zip(plan.stage_values, GREEDY_VALUES):
        assert got == pytest.approx(float(want), abs=1e-12)


def test_greedy_prefixes_are_stable(ieee14, score):
    short = greedy_plan(ieee14, NU, score, stages=4)
    full = greedy_plan(ieee14, NU, score, stages=10)
    assert short.order == full.order[:4]
    assert short.stage_values == full.stage_values[:4]


def test_budget_reference_sets_and_values(ieee14, score):
    for k, (want_set, want_value) in enumerate(zip(BUDGET_SETS, BUDGET_VALUES), start=1):
        result = budget_constrained_plan(ieee14, NU, score, k)
        assert result.stage == k
        assert result.selected == want_set
        assert result.metric_value == pytest.approx(float(want_value), abs=1e-12)


def test_comparison_flags_and_dominance(ieee14, score):
    cmp = compare_plans(ieee14, NU, score, stages=10)
    assert cmp.greedy_order == GREEDY_ORDER
    assert cmp.differing_stages == (3, 4, 6)
    assert cmp.strictly_worse_stages == (3, 4, 6)
    for row in cmp.rows:
        assert row.budget.metric_value <= row.greedy.metric_value + 1e-12
        assert row.greedy_added == GREEDY_ORDER[row.stage - 1]
    # final stages must coincide: both plans hold every free bus
    last = cmp.rows[-1]
    assert last.budget.selected == last.greedy.selected
    assert not last.sets_differ


def test_comparison_serialization(ieee14, score):
    cmp = compare_plans(ieee14, NU, score, stages=2)
    d = cmp.to_dict()
    assert d["base"] == [2, 6, 7, 9]
    assert d["greedy_order"] == [8, 1]
    assert [r["stage"] for r in d["rows"]] == [1, 2]
    assert set(d["rows"][0]) == {
        "stage",
        "budget_selected",
        "budget_value",
        "greedy_selected",
        "greedy_added",
        "greedy_value",
        "sets_differ",
        "greedy_strictly_worse",
    }
    again = compare_plans(ieee14, NU, metric_function(ieee14), stages=2)
    assert again.to_dict() == d


@pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf"), True, "0", None])
def test_planners_reject_a_bad_tie_tolerance(ieee14, score, bad):
    # the first two would leave a stage without a winner (a bare StopIteration
    # from the stage search); inf would tie every candidate, and so did True
    # at stage 1, picking bus 1 instead of bus 8
    with pytest.raises(ValueError, match="tie tolerance must be nonnegative"):
        greedy_plan(ieee14, NU, score, stages=2, tie_tol=bad)
    with pytest.raises(ValueError, match="tie tolerance must be nonnegative"):
        budget_constrained_plan(ieee14, NU, score, 2, tie_tol=bad)
    with pytest.raises(ValueError, match="tie tolerance must be nonnegative"):
        compare_plans(ieee14, NU, score, stages=2, tie_tol=bad)


def test_stage_bounds(ieee14, score):
    assert greedy_plan(ieee14, NU, score, stages=0).order == ()
    with pytest.raises(ValueError, match="stages"):
        greedy_plan(ieee14, NU, score, stages=11)
    with pytest.raises(ValueError, match="k must be"):
        budget_constrained_plan(ieee14, NU, score, 0)
    with pytest.raises(ValueError, match="k must be"):
        budget_constrained_plan(ieee14, NU, score, 11)
    with pytest.raises(ValueError, match="at least one"):
        compare_plans(ieee14, NU, score, stages=0)


def _refusal(call) -> str:
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


def _uncalled(score, calls):
    """``score`` without its scorer, recording each placement it is called on."""
    def f(placement):
        calls.append(placement)
        return score(placement)

    return f


@pytest.mark.parametrize("bad", [True, False, 2.0, float("nan"), "2", None, -1])
def test_planner_counts_refuse_what_is_no_int(ieee14, score, bad):
    """Stages and k must be ints in range and never bools, refused by name
    and value before the metric runs: ``stages=True`` once planned one
    stage and a float ``k`` raised a bare TypeError."""
    calls = []
    f = _uncalled(score, calls)
    assert _refusal(lambda: greedy_plan(ieee14, NU, f, bad)) == (
        f"stages must be in 0..10, got {bad!r}")
    assert _refusal(lambda: budget_constrained_plan(ieee14, NU, f, bad)) == (
        f"k must be in 1..10, got {bad!r}")
    assert _refusal(lambda: compare_plans(ieee14, NU, f, bad)) == (
        f"stages must be a nonnegative integer, got {bad!r}")
    assert calls == []


@pytest.mark.parametrize("bad", [True, 2.0, float("nan"), float("inf"), "5", None, -1])
def test_planner_enum_cap_refuses_what_is_no_count(ieee14, score, bad):
    """A nan cap once enumerated with no cap, and ``enum_cap=True`` printed
    "over the cap of True"."""
    calls = []
    f = _uncalled(score, calls)
    message = f"enum_cap must be a nonnegative integer, got {bad!r}"
    assert _refusal(lambda: budget_constrained_plan(ieee14, NU, f, 3, enum_cap=bad)) == message
    assert _refusal(lambda: compare_plans(ieee14, NU, f, 3, enum_cap=bad)) == message
    assert calls == []


@st.composite
def small_cases(draw):
    """A connected case of 2-7 buses with scattered ids and parallel branches."""
    ids = draw(st.lists(st.integers(1, 60), min_size=2, max_size=7, unique=True))
    pairs = [(ids[i], draw(st.sampled_from(ids[:i]))) for i in range(1, len(ids))]
    pairs += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                           .filter(lambda ft: ft[0] != ft[1]), max_size=5))
    return NetworkCase(
        name="drawn",
        buses=tuple(Bus(i) for i in ids),
        branches=tuple(Branch(f, t, 0.0, 1.0) for f, t in pairs),
    )


def _outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_comparison_equals_both_planners_run_apart(data):
    """Reading stage 1 from greedy changes no row: every row equals the one
    built from greedy_plan and a separate budget_constrained_plan per stage,
    for metrics with a scorer and without one, at every tie tolerance."""
    case = data.draw(st.one_of(st.just(load_case("ieee14")), small_cases()), label="case")
    ids = case.bus_ids
    base = data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=len(ids) - 1),
                     label="base")
    stages = data.draw(st.integers(1, min(3, len(ids) - len(base))), label="stages")
    tie_tol = data.draw(st.sampled_from([0.0, 1e-9, 0.01]), label="tie_tol")
    metric = metric_function(
        case,
        scope=data.draw(st.sampled_from(list(StateScope)), label="scope"),
        dedupe=data.draw(st.sampled_from(["by-branch", "per-end"]), label="dedupe"),
        channel_limit=16,
    )
    if data.draw(st.booleans(), label="bare"):
        metric = lambda q, f=metric: f(q)  # no scorer: the planners call it per candidate

    def apart():
        greedy = greedy_plan(case, base, metric, stages, tie_tol=tie_tol)
        rows = []
        for k in range(1, stages + 1):
            budget = budget_constrained_plan(case, base, metric, k, tie_tol=tie_tol)
            gres = greedy.stage_result(k)
            rows.append(ComparisonRow(
                stage=k, budget=budget, greedy=gres, greedy_added=greedy.order[k - 1],
                sets_differ=set(budget.selected) != set(gres.selected),
                greedy_strictly_worse=gres.metric_value > budget.metric_value + tie_tol,
            ))
        return greedy.base, tuple(rows), greedy.order

    def together():
        cmp = compare_plans(case, base, metric, stages, tie_tol=tie_tol)
        return cmp.base, cmp.rows, cmp.greedy_order

    assert _outcome(together) == _outcome(apart)


@pytest.mark.parametrize("bare", [False, True])
def test_an_exhaustive_pick_inside_the_tie_band_may_score_above_greedy(bare):
    """At stage 3 the exhaustive search picks (5, 12, 14) at 29/40, the
    first set within 0.01 of the minimum, above greedy's 28/39. That is the
    tie rule, not a metric that is no set function: compare_plans once
    raised on it, and the property test above drew this input."""
    case = load_case("ieee14")
    metric = metric_function(case, scope=StateScope.PMU, dedupe="per-end", channel_limit=16)
    if bare:
        metric = lambda q, f=metric: f(q)  # no scorer: the planners call it per candidate
    base = (1, 2, 3, 4, 7, 8, 10, 11)
    comparison = compare_plans(case, base, metric, 3, tie_tol=0.01)
    row = comparison.rows[2]
    assert row.budget == budget_constrained_plan(case, base, metric, 3, tie_tol=0.01)
    assert (row.budget.selected, row.greedy.selected) == ((5, 12, 14), (12, 13, 14))
    assert (row.budget.metric_value, row.greedy.metric_value) == (
        float(Fraction(29, 40)), float(Fraction(28, 39)))
    assert (row.sets_differ, row.greedy_strictly_worse) == (True, False)


def test_comparison_refuses_a_metric_that_is_no_set_function(ieee14):
    calls = itertools.count()

    def drifting(placement):  # each call scores above every call before it
        return float(next(calls))

    with pytest.raises(RuntimeError, match="^exhaustive stage 2 scored worse than greedy"):
        compare_plans(ieee14, NU, drifting, 2)


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_comparison_scores_stage_1_once(ieee14, score, stages):
    """Without a scorer every candidate is a metric call; the comparison
    makes len(free) fewer than greedy plus the exhaustive stages run apart,
    also under the smallest cap that every stage fits."""
    free = len(ieee14.bus_ids) - len(NU)
    calls = []

    def counted(q):
        calls.append(q)
        return score(q)

    compare_plans(ieee14, NU, counted, stages, enum_cap=math.comb(free, stages))
    together = len(calls)
    calls.clear()
    greedy_plan(ieee14, NU, counted, stages)
    for k in range(1, stages + 1):
        budget_constrained_plan(ieee14, NU, counted, k)
    assert len(calls) - together == free


def test_comparison_counts_stage_1_against_the_cap(ieee14, score):
    """Stage 1 has 10 subsets over the base 2,6,7,9 and stage 2 has 45."""
    with pytest.raises(EnumerationCapError) as err:
        compare_plans(ieee14, NU, score, stages=2, enum_cap=9)
    assert (err.value.candidates, err.value.cap, err.value.k) == (10, 9, 1)
    with pytest.raises(EnumerationCapError) as err:
        compare_plans(ieee14, NU, score, stages=2, enum_cap=10)
    assert (err.value.candidates, err.value.cap, err.value.k) == (45, 10, 2)
    assert compare_plans(ieee14, NU, score, stages=2, enum_cap=45).greedy_order == (8, 1)


def test_enumeration_cap_suggests_greedy(ieee14, score):
    with pytest.raises(EnumerationCapError, match="greedy planner") as err:
        budget_constrained_plan(ieee14, NU, score, 5, enum_cap=100)
    assert err.value.candidates == 252
    assert err.value.cap == 100
    assert err.value.k == 5


def test_metric_failures_name_the_candidate(ieee14):
    def flaky(q):
        if 8 in q:
            raise RuntimeError("boom")
        return float(len(q))

    with pytest.raises(CandidateEvaluationError) as err:
        greedy_plan(ieee14, NU, flaky, stages=1)
    assert err.value.stage == 1
    assert err.value.candidate == 8
    with pytest.raises(CandidateEvaluationError):
        budget_constrained_plan(ieee14, NU, flaky, 2)


@pytest.mark.parametrize("nan_bus", [14, 1])
def test_a_nan_from_the_metric_names_its_candidate(ieee14, nan_bus):
    """NaN is neither above nor below any value, so no tie rule can place
    it: the first candidate it scores fails, whether it comes first (bus 1)
    or after the best candidate (bus 14)."""
    metric = metric_function(ieee14)

    def with_nan(placement):
        return math.nan if nan_bus in placement else metric(placement)

    with pytest.raises(CandidateEvaluationError) as err:
        greedy_plan(ieee14, NU, with_nan, stages=1)
    assert (err.value.stage, err.value.candidate) == (1, nan_bus)
    assert isinstance(err.value.__cause__, ValueError)
    free = sorted(set(ieee14.bus_ids) - set(NU))
    for k in (1, 2):
        with pytest.raises(CandidateEvaluationError) as err:
            budget_constrained_plan(ieee14, NU, with_nan, k)
        first = next(c for c in itertools.combinations(free, k) if nan_bus in c)
        assert (err.value.stage, err.value.candidate) == (k, first)
        assert isinstance(err.value.__cause__, ValueError)


def test_ties_go_to_the_first_candidate_within_tie_tol_of_the_minimum():
    """Values 0.51, 0.505 and 0.499 in enumeration order at a tolerance of
    0.01: 0.505 is the first within reach of the minimum 0.499, though
    neither the first nor the last value to set a new minimum."""
    path = NetworkCase(
        name="path3",
        buses=tuple(Bus(i) for i in range(1, 4)),
        branches=tuple(Branch(i, i + 1, 0.0, 1.0) for i in range(1, 3)),
    )
    by_one = {frozenset({1}): 0.51, frozenset({2}): 0.505, frozenset({3}): 0.499}
    plan = greedy_plan(path, (), by_one.__getitem__, stages=1, tie_tol=0.01)
    assert (plan.order, plan.stage_values) == ((2,), (0.505,))
    assert (budget_constrained_plan(path, (), by_one.__getitem__, 1, tie_tol=0.01)
            == StageResult(stage=1, selected=(2,), metric_value=0.505))
    by_two = {frozenset({1, 2}): 0.51, frozenset({1, 3}): 0.505, frozenset({2, 3}): 0.499}
    assert (budget_constrained_plan(path, (), by_two.__getitem__, 2, tie_tol=0.01)
            == StageResult(stage=2, selected=(1, 3), metric_value=0.505))


@pytest.mark.parametrize("tied", [1.0, math.inf])
def test_all_tied_metric_falls_back_to_ids(tied):
    path = NetworkCase(
        name="path5",
        buses=tuple(Bus(i) for i in range(1, 6)),
        branches=tuple(Branch(i, i + 1, 0.0, 1.0) for i in range(1, 5)),
    )
    flat = lambda q: tied
    plan = greedy_plan(path, (3,), flat, stages=4)
    assert plan.order == (1, 2, 4, 5)
    picked = budget_constrained_plan(path, (3,), flat, 2)
    assert picked.selected == (1, 2)


def test_result_validation():
    with pytest.raises(ValueError, match="exactly k"):
        StageResult(stage=2, selected=(1,), metric_value=0.0)
    with pytest.raises(ValueError, match="sorted"):
        StageResult(stage=2, selected=(2, 1), metric_value=0.0)
    with pytest.raises(ValueError, match="repeat"):
        PriorityList(base=(1,), order=(2, 2), stage_values=(0.0, 0.0))
    with pytest.raises(ValueError, match="revisit"):
        PriorityList(base=(1,), order=(1, 2), stage_values=(0.0, 0.0))
    plan = PriorityList(base=(9,), order=(4, 2), stage_values=(0.5, 0.25))
    assert plan.stage_result(2).selected == (2, 4)
    for bad in (3, 0, True, 1.0):  # True once gave StageResult(stage=True, ...)
        with pytest.raises(ValueError, match=f"stage must be in 1..2, got {bad!r}"):
            plan.stage_result(bad)


@pytest.mark.parametrize("bad", [True, 2.0])
@pytest.mark.parametrize("planner", ["greedy", "budget", "compare"])
def test_base_bus_ids_must_be_ints(ieee14, planner, bad):
    """A bool or float id in the base is refused by value, before the metric
    runs: ``greedy_plan(ieee14, (True, 6, 7, 9), f, 2)`` once returned a
    plan whose base was ``(True, 6, 7, 9)``, read as bus 1."""
    calls = []

    def metric(placement):
        calls.append(placement)
        return 0.0

    plan = {"greedy": greedy_plan, "budget": budget_constrained_plan,
            "compare": compare_plans}[planner]
    with pytest.raises(ValueError) as err:
        plan(ieee14, (bad, 6, 7, 9), metric, 2)
    assert str(err.value) == f"base bus ids must be integers, got {bad!r}"
    assert calls == []


def test_unknown_base_bus_rejected(ieee14, score):
    for plan in (lambda nu: greedy_plan(ieee14, nu, score, stages=1),
                 lambda nu: budget_constrained_plan(ieee14, nu, score, 1),
                 lambda nu: compare_plans(ieee14, nu, score, stages=1)):
        with pytest.raises(ValueError, match=r"^base buses not in the case: \[0, 99\]$"):
            plan((99, 2, 0))
