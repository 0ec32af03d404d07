import itertools
import math
import random
import tracemalloc
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmuplan.knapsack
from pmuplan.knapsack import (
    MAX_EXHAUSTIVE_ITEMS,
    MAX_SWEEP_ITEMS,
    SWEEP_BYTES_PER_SUBSET,
    SWEEP_MEMORY_BUDGET,
    BudgetBreakpointRow,
    BudgetBreakpointTable,
    ItemLimitError,
    KnapsackInstance,
    budget_sweep,
    example_instance,
    greedy_solve,
    optimal_solve,
)


def test_instance_validation_and_labels():
    inst = example_instance()
    assert inst.n == 4
    assert inst.labels == ("x1", "x2", "x3", "x4")
    assert inst.label_items((2, 0)) == ("x3", "x1")
    with pytest.raises(ValueError, match="equal length"):
        KnapsackInstance(values=(1.0,), weights=(1.0, 2.0))
    with pytest.raises(ValueError, match="strictly positive"):
        KnapsackInstance(values=(1.0,), weights=(0.0,))
    with pytest.raises(ValueError, match="one label"):
        KnapsackInstance(values=(1.0,), weights=(1.0,), labels=("a", "b"))
    with pytest.raises(ValueError, match="at least one"):
        KnapsackInstance(values=(), weights=())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_instance_rejects_non_finite_numbers(bad):
    with pytest.raises(ValueError, match="finite"):
        KnapsackInstance(values=(bad, 1.0), weights=(1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        KnapsackInstance(values=(1.0, 1.0), weights=(1.0, bad))


def test_instance_rejects_negative_values_naming_the_item():
    with pytest.raises(ValueError, match=r"item x1 \(index 0\) has negative value -1"):
        KnapsackInstance(values=(-1.0, 2.0), weights=(1.0, 2.0))
    with pytest.raises(ValueError, match=r"item pmu-b \(index 1\) has negative value -0.5"):
        KnapsackInstance(values=(1.0, -0.5), weights=(1.0, 2.0), labels=("pmu-a", "pmu-b"))
    # a zero value is a legitimate item that never pays off
    assert KnapsackInstance(values=(0.0, 2.0), weights=(1.0, 2.0)).n == 2


def test_optimal_point_solves():
    inst = example_instance()
    assert optimal_solve(inst, 0.0) == ((), 0.0)
    assert optimal_solve(inst, 4.0) == ((0,), 7.0)
    # the budget window where the pair beats the heavy single item
    assert optimal_solve(inst, 5.0) == ((1, 2), 9.0)
    assert optimal_solve(inst, 100.0) == ((0, 1, 2, 3), 17.0)
    with pytest.raises(ValueError, match="nonnegative"):
        optimal_solve(inst, -1.0)


def test_greedy_point_solves():
    inst = example_instance()
    assert greedy_solve(inst, 0.0) == ((), 0.0)
    assert greedy_solve(inst, 4.0) == ((1,), 5.0)
    assert greedy_solve(inst, 10.0) == ((1, 2, 0), 16.0)
    assert greedy_solve(inst, 15.0) == ((1, 2, 0, 3), 17.0)
    with pytest.raises(ValueError, match="nonnegative"):
        greedy_solve(inst, -0.5)


@pytest.mark.parametrize("bad", [float("nan"), True, "5", None, -1.0])
def test_point_solves_refuse_a_budget_that_is_no_nonnegative_number(bad):
    """A nan budget once bought nothing from the exhaustive solver and every
    item from the greedy one; an infinite budget admits every item."""
    inst = example_instance()
    for solve in (optimal_solve, greedy_solve):
        with pytest.raises(ValueError) as err:
            solve(inst, bad)
        assert str(err.value) == f"budget must be nonnegative, got {bad!r}"
    assert optimal_solve(inst, math.inf) == ((0, 1, 2, 3), 17.0)
    assert greedy_solve(inst, math.inf) == ((1, 2, 0, 3), 17.0)


def test_greedy_purchase_order_is_budget_independent():
    inst = example_instance()
    full, _ = greedy_solve(inst, math.inf)
    for b in (0.0, 1.9, 2.0, 4.9, 5.0, 8.9, 9.0, 14.9, 15.0, 40.0):
        picked, _ = greedy_solve(inst, b)
        assert picked == full[: len(picked)]


def test_optimal_sweep_has_seven_regimes():
    table = budget_sweep(example_instance(), "optimal")
    got = [(r.lo, r.hi, r.items, r.objective) for r in table.rows]
    assert got == [
        (0.0, 2.0, (), 0.0),
        (2.0, 4.0, (1,), 5.0),
        (4.0, 5.0, (0,), 7.0),
        (5.0, 6.0, (1, 2), 9.0),
        (6.0, 9.0, (0, 1), 12.0),
        (9.0, 15.0, (0, 1, 2), 16.0),
        (15.0, math.inf, (0, 1, 2, 3), 17.0),
    ]


def test_greedy_sweep_has_five_regimes():
    table = budget_sweep(example_instance(), "greedy")
    got = [(r.lo, r.hi, r.items, r.objective) for r in table.rows]
    assert got == [
        (0.0, 2.0, (), 0.0),
        (2.0, 5.0, (1,), 5.0),
        (5.0, 9.0, (1, 2), 9.0),
        (9.0, 15.0, (1, 2, 0), 16.0),
        (15.0, math.inf, (1, 2, 0, 3), 17.0),
    ]


def _per_budget_optimal_table(instance):
    """The optimal sweep by definition: optimal_solve at every subset sum,
    runs of equal solutions merged."""
    sums = sorted({
        float(sum(instance.weights[i] for i in combo))
        for r in range(instance.n + 1)
        for combo in itertools.combinations(range(instance.n), r)
    })
    rows = []
    for b in sums:
        items, objective = optimal_solve(instance, b)
        if rows and rows[-1][2:] == (items, objective):
            continue
        if rows:
            rows[-1] = (rows[-1][0], b, *rows[-1][2:])
        rows.append((b, math.inf, items, objective))
    return rows


# few distinct numbers, so that values, weights and subset sums tie often
_numbers = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.just(0.0), _numbers), _numbers),
                min_size=1, max_size=7))
def test_optimal_sweep_equals_per_budget_optimal_solve(items):
    instance = KnapsackInstance(values=tuple(v for v, _ in items),
                                weights=tuple(w for _, w in items))
    table = budget_sweep(instance, "optimal")
    got = [(r.lo, r.hi, r.items, r.objective) for r in table.rows]
    assert got == _per_budget_optimal_table(instance)


def test_sixteen_item_optimal_sweep():
    """One enumeration of 2^16 subsets, where a solve per subset sum would
    take 2^32 steps; the rows agree with point solves at their budgets."""
    rng = random.Random(16)
    instance = KnapsackInstance(values=tuple(rng.uniform(0, 10) for _ in range(16)),
                                weights=tuple(rng.uniform(0.5, 5) for _ in range(16)))
    rows = budget_sweep(instance, "optimal").rows
    assert rows[-1].items == tuple(range(16))
    for row in (rows[1], rows[len(rows) // 2], rows[-2]):
        assert optimal_solve(instance, row.lo) == (row.items, row.objective)
        assert optimal_solve(instance, math.nextafter(row.hi, 0.0)) == (row.items, row.objective)


def test_greedy_never_beats_optimal():
    inst = example_instance()
    budgets = [0.0, 1.0, 2.5, 3.0, 4.5, 5.5, 7.0, 9.5, 12.0, 20.0]
    for b in budgets:
        _, greedy_value = greedy_solve(inst, b)
        _, optimal_value = optimal_solve(inst, b)
        assert greedy_value <= optimal_value


def test_weight_ties_resolve_by_value_then_index():
    inst = KnapsackInstance(values=(1.0, 9.0, 9.0), weights=(2.0, 2.0, 2.0))
    picked, _ = greedy_solve(inst, 6.0)
    assert picked == (1, 2, 0)


def test_sweep_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        budget_sweep(example_instance(), "annealing")


def test_item_limit_guard():
    big = KnapsackInstance(values=(1.0,) * 26, weights=(1.0,) * 26)
    with pytest.raises(ItemLimitError, match="26 items"):
        optimal_solve(big, 5.0)
    with pytest.raises(ItemLimitError):
        budget_sweep(big, "greedy")
    # greedy point solves stay cheap at any size
    picked, value = greedy_solve(big, 3.0)
    assert (len(picked), value) == (3, 3.0)


def test_sweep_limit_is_set_by_memory(monkeypatch):
    """The sweep's limit is the most items whose subsets fit the memory
    budget; one more raises before any subset is enumerated, naming that
    limit, while the point solves still take up to 25 items."""
    assert MAX_SWEEP_ITEMS < MAX_EXHAUSTIVE_ITEMS == 25
    assert 2**MAX_SWEEP_ITEMS * SWEEP_BYTES_PER_SUBSET <= SWEEP_MEMORY_BUDGET
    assert 2 ** (MAX_SWEEP_ITEMS + 1) * SWEEP_BYTES_PER_SUBSET > SWEEP_MEMORY_BUDGET
    n = MAX_SWEEP_ITEMS + 1
    over = KnapsackInstance(values=(1.0,) * n, weights=(1.0,) * n)

    class NoEnumeration:
        def __getattr__(self, name):
            raise AssertionError(f"itertools.{name} used past the limit")

    monkeypatch.setattr(pmuplan.knapsack, "itertools", NoEnumeration())
    for method in ("optimal", "greedy"):
        with pytest.raises(ItemLimitError, match=f"{n} items .*limit {MAX_SWEEP_ITEMS}") as err:
            budget_sweep(over, method)
        assert (err.value.n, err.value.limit) == (n, MAX_SWEEP_ITEMS)
    monkeypatch.undo()
    assert optimal_solve(over, 2.0) == ((0, 1), 2.0)


@pytest.mark.parametrize("method", ["optimal", "greedy"])
def test_sweep_memory_stays_within_the_per_subset_bound(method):
    """tracemalloc's peak for a 14-item sweep, per subset, is within the
    figure the sweep limit is sized by (measured at 20 items, where the
    index tuples are longer)."""
    rng = random.Random(14)
    inst = KnapsackInstance(values=tuple(rng.uniform(0, 9) for _ in range(14)),
                            weights=tuple(rng.uniform(0.5, 9) for _ in range(14)))
    tracemalloc.start()
    try:
        budget_sweep(inst, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**14 <= SWEEP_BYTES_PER_SUBSET


def _reference_greedy_solve(instance, budget):
    """The per-step greedy loop: the lightest remaining item (higher value,
    then lower index) while the spend so far plus its weight is in budget."""
    picked, spent, remaining = [], 0.0, set(range(instance.n))
    while remaining:
        wmin = min(instance.weights[i] for i in remaining)
        if spent + wmin > budget:
            break
        group = sorted(i for i in remaining if instance.weights[i] == wmin)
        pick = max(group, key=lambda i: instance.values[i])
        picked.append(pick)
        remaining.remove(pick)
        spent += instance.weights[pick]
    return tuple(picked), float(sum(instance.values[i] for i in picked))


def _reference_greedy_sweep(instance):
    """A greedy solve at every distinct subset sum, runs of equal
    selections merged."""
    sums = sorted(
        (float(sum(instance.weights[i] for i in combo)), combo)
        for r in range(instance.n + 1)
        for combo in itertools.combinations(range(instance.n), r)
    )
    rows = []
    for b, _ in itertools.groupby(sums, key=itemgetter(0)):
        items, objective = _reference_greedy_solve(instance, b)
        if rows and rows[-1].items == items and rows[-1].objective == objective:
            continue
        if rows:
            rows[-1] = BudgetBreakpointRow(rows[-1].lo, b, rows[-1].items, rows[-1].objective)
        rows.append(BudgetBreakpointRow(b, math.inf, items, objective))
    return BudgetBreakpointTable(method="greedy", rows=tuple(rows))


# weights drawn from small pools so that equal weights are common; 1e-300
# and 5e-324 vanish when added to the others, so running weights and subset
# sums of different items tie (a zero weight cannot be constructed)
_WEIGHT_POOLS = ((1.0, 2.0, 3.0), (0.1, 0.2, 0.3, 0.7), (1.0, 1e-300, 5e-324, 2.5),
                 (1e16, 1.0, 2.0, 3.0))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_greedy_sweep_matches_the_per_budget_loop(data):
    """Row for row, on instances with zero values, equal weights and
    weights that float additions absorb; greedy_solve against its loop."""
    n = data.draw(st.integers(1, 8))
    weight = st.one_of(st.sampled_from(data.draw(st.sampled_from(_WEIGHT_POOLS))),
                       st.floats(1e-3, 1e3))
    value = st.one_of(st.just(0.0), st.sampled_from((1.0, 2.5)), st.floats(0.0, 1e3))
    inst = KnapsackInstance(values=tuple(data.draw(value) for _ in range(n)),
                            weights=tuple(data.draw(weight) for _ in range(n)))
    table = budget_sweep(inst, "greedy")
    assert table == _reference_greedy_sweep(inst)
    for row in table.rows:
        for b in (row.lo, math.nextafter(row.lo, 0.0), row.hi):
            assert greedy_solve(inst, b) == _reference_greedy_solve(inst, b)


def test_single_item_sweep():
    table = budget_sweep(KnapsackInstance(values=(3.0,), weights=(2.0,)), "optimal")
    assert [(r.lo, r.hi, r.objective) for r in table.rows] == [
        (0.0, 2.0, 0.0),
        (2.0, math.inf, 3.0),
    ]


def test_table_invariants_enforced():
    row = lambda lo, hi, v: BudgetBreakpointRow(lo=lo, hi=hi, items=(), objective=v)
    with pytest.raises(ValueError, match="start at budget 0"):
        BudgetBreakpointTable(method="optimal", rows=(row(1.0, math.inf, 0.0),))
    with pytest.raises(ValueError, match="unbounded"):
        BudgetBreakpointTable(method="optimal", rows=(row(0.0, 5.0, 0.0),))
    with pytest.raises(ValueError, match="tile"):
        BudgetBreakpointTable(
            method="optimal", rows=(row(0.0, 2.0, 0.0), row(3.0, math.inf, 1.0))
        )
    with pytest.raises(ValueError, match="non-decreasing"):
        BudgetBreakpointTable(
            method="optimal", rows=(row(0.0, 2.0, 5.0), row(2.0, math.inf, 1.0))
        )


def test_table_serialization_with_labels():
    inst = example_instance()
    d = budget_sweep(inst, "greedy").to_dict(inst)
    assert d["method"] == "greedy"
    assert d["rows"][0]["items"] == [] and d["rows"][0]["labels"] == []
    assert d["rows"][-1]["hi"] is None
    assert d["rows"][2]["labels"] == ["x2", "x3"]
    bare = budget_sweep(inst, "greedy").to_dict()
    assert "labels" not in bare["rows"][0]
