"""Sequential-investment toy model: exhaustive 0/1 knapsack vs greedy growth.

The placement planners and this module share one storyline at different
scales. The exhaustive solver re-optimizes from scratch for each budget and
may discard earlier picks as the budget grows; the greedy process models an
investor who commits as soon as anything becomes affordable and never sells.
Budget sweeps turn either policy into a breakpoint table: one row per
interval of budgets sharing the same selection.

Greedy here means growth semantics: the budget rises continuously from zero
and, at each moment something fits the uncommitted remainder, the
highest-value fitting item is bought. Since an item fits the instant the
remainder reaches its weight, the items that fit at a trigger point are
exactly the minimum-weight remaining ones, so the rule resolves to: buy the
lightest remaining item (highest value, then lowest index, on equal
weights) whenever the budget allows it.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

__all__ = [
    "KnapsackInstance",
    "BudgetBreakpointRow",
    "BudgetBreakpointTable",
    "ItemLimitError",
    "example_instance",
    "optimal_solve",
    "greedy_solve",
    "budget_sweep",
    "MAX_EXHAUSTIVE_ITEMS",
    "MAX_SWEEP_ITEMS",
]

# the point solves stream the 2^n subsets and hold none of them
MAX_EXHAUSTIVE_ITEMS = 25
# budget_sweep holds every subset at once: tracemalloc puts its peak at 212
# bytes a subset for a 20-item optimal sweep (CPython 3.11, 64-bit), the
# larger of the two methods; the limit keeps a sweep within the budget
SWEEP_BYTES_PER_SUBSET = 212
SWEEP_MEMORY_BUDGET = 256 * 2**20
MAX_SWEEP_ITEMS = (SWEEP_MEMORY_BUDGET // SWEEP_BYTES_PER_SUBSET).bit_length() - 1


class ItemLimitError(RuntimeError):
    """Instance has too many items for exhaustive subset enumeration."""

    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(f"{n} items cannot be enumerated exhaustively (limit {limit})")


@dataclass(frozen=True)
class KnapsackInstance:
    values: tuple[float, ...]
    weights: tuple[float, ...]
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("instance needs at least one item")
        if len(self.values) != len(self.weights):
            raise ValueError("values and weights must have equal length")
        if not all(math.isfinite(x) for x in self.values + self.weights):
            raise ValueError("values and weights must be finite numbers")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        # every subset's objective and weight is then finite, and so is every budget
        if not math.isfinite(sum(abs(v) for v in self.values)):
            raise ValueError("values must have a finite sum")
        if not math.isfinite(sum(self.weights)):
            raise ValueError("weights must have a finite sum")
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"x{i + 1}" for i in range(len(self.values)))
            )
        elif len(self.labels) != len(self.values):
            raise ValueError("one label per item required")
        for i, (label, value) in enumerate(zip(self.labels, self.values)):
            if value < 0:
                raise ValueError(
                    f"item {label} (index {i}) has negative value {value:g}; "
                    f"values must be nonnegative"
                )

    @property
    def n(self) -> int:
        return len(self.values)

    def label_items(self, items: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in items)


def example_instance() -> KnapsackInstance:
    """The four-item instance used throughout the documentation and tests."""
    return KnapsackInstance(values=(7.0, 5.0, 4.0, 1.0), weights=(4.0, 2.0, 3.0, 6.0))


@dataclass(frozen=True)
class BudgetBreakpointRow:
    """One budget interval [lo, hi) with its selection and objective."""

    lo: float
    hi: float
    items: tuple[int, ...]
    objective: float


@dataclass(frozen=True)
class BudgetBreakpointTable:
    method: str
    rows: tuple[BudgetBreakpointRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("breakpoint table cannot be empty")
        if self.rows[0].lo != 0.0:
            raise ValueError("intervals must start at budget 0")
        if not math.isinf(self.rows[-1].hi):
            raise ValueError("last interval must be unbounded")
        for left, right in zip(self.rows, self.rows[1:]):
            if left.hi != right.lo:
                raise ValueError("intervals must tile [0, inf) without gaps")
            if right.objective < left.objective:
                raise ValueError("objective must be non-decreasing in budget")

    def to_dict(self, instance: KnapsackInstance | None = None) -> dict:
        rows = []
        for r in self.rows:
            row = {
                "lo": r.lo,
                "hi": None if math.isinf(r.hi) else r.hi,
                "items": list(r.items),
                "objective": r.objective,
            }
            if instance is not None:
                row["labels"] = list(instance.label_items(r.items))
            rows.append(row)
        return {"method": self.method, "rows": rows}


def _check_enumerable(instance: KnapsackInstance) -> None:
    if instance.n > MAX_EXHAUSTIVE_ITEMS:
        raise ItemLimitError(instance.n, MAX_EXHAUSTIVE_ITEMS)


def _check_budget(budget: float) -> None:
    """Raise ValueError unless ``budget`` is a real number >= 0, inf included;
    a bool or nan is none."""
    if isinstance(budget, bool) or not (isinstance(budget, (int, float)) and budget >= 0):
        raise ValueError(f"budget must be nonnegative, got {budget!r}")


def optimal_solve(
    instance: KnapsackInstance, budget: float
) -> tuple[tuple[int, ...], float]:
    """Exact optimum by enumerating all 2^n subsets.

    Returns (sorted item indices, objective). Value ties go to the
    lexicographically smallest index tuple, so outputs are reproducible.
    """
    _check_budget(budget)
    _check_enumerable(instance)
    return _best(instance, ((), 0.0), (
        combo
        for r in range(1, instance.n + 1)
        for combo in itertools.combinations(range(instance.n), r)
        if sum(instance.weights[i] for i in combo) <= budget
    ))


def _best(instance: KnapsackInstance, best: tuple[tuple[int, ...], float], combos):
    """``best`` (items, objective) after folding in ``combos``: the higher
    value wins, then the lexicographically smaller index tuple."""
    best_items, best_value = best
    for combo in combos:
        value = sum(instance.values[i] for i in combo)
        if value > best_value or (value == best_value and combo < best_items):
            best_items = combo
            best_value = value
    return best_items, best_value


def _purchase_order(instance: KnapsackInstance) -> tuple[tuple[int, ...], list[float]]:
    """The growth-semantics purchase order, lightest first (higher value,
    then lower index, on equal weights), and its running weights: entry j is
    what the first j purchases cost, added up in that order."""
    order = tuple(sorted(range(instance.n),
                         key=lambda i: (instance.weights[i], -instance.values[i], i)))
    spent = list(itertools.accumulate((instance.weights[i] for i in order), initial=0.0))
    return order, spent


def greedy_solve(
    instance: KnapsackInstance, budget: float
) -> tuple[tuple[int, ...], float]:
    """Growth-semantics greedy: commit items as the budget reaches them.

    Returns (items in purchase order, objective). The purchase order is a
    fixed property of the instance; the budget only decides how long a
    prefix of it gets bought.
    """
    _check_budget(budget)
    order, spent = _purchase_order(instance)
    # running weights never fall, so the prefixes the budget admits are the
    # entries up to the last one within it
    picked = order[: bisect_right(spent, budget) - 1]
    return picked, float(sum(instance.values[i] for i in picked))


def budget_sweep(instance: KnapsackInstance, method: str) -> BudgetBreakpointTable:
    """Exact breakpoint table for a policy: one row per selection regime.

    Either policy's selection can only change where some subset's total
    weight sits, so evaluating at every subset sum and merging runs of
    identical solutions yields the exact intervals. Neither policy needs a
    re-solve per budget. Over the subsets sorted by weight, the optimum at
    a budget is the best of those it admits, in :func:`optimal_solve`'s
    order, so one pass folds it in. The greedy selection is a prefix of the
    purchase order, so its rows are those prefixes, each from the smallest
    subset sum at or above its running weight. Cost and memory are
    exponential in the item count: past ``MAX_SWEEP_ITEMS`` items, set by
    the memory a sweep holds, it raises :class:`ItemLimitError` before it
    enumerates anything.
    """
    if method not in ("optimal", "greedy"):
        raise ValueError(f"unknown method {method!r}, expected 'optimal' or 'greedy'")
    if instance.n > MAX_SWEEP_ITEMS:
        raise ItemLimitError(instance.n, MAX_SWEEP_ITEMS)

    subsets = (
        (float(sum(instance.weights[i] for i in combo)), combo)
        for r in range(instance.n + 1)
        for combo in itertools.combinations(range(instance.n), r)
    )
    if method == "greedy":
        points = _greedy_points(instance, sorted({b for b, _ in subsets}))
    else:
        points = _optimal_points(instance, sorted(subsets))
    rows: list[BudgetBreakpointRow] = []
    for b, items, objective in points:
        if rows and rows[-1].items == items and rows[-1].objective == objective:
            continue
        if rows:
            rows[-1] = BudgetBreakpointRow(
                lo=rows[-1].lo, hi=b, items=rows[-1].items, objective=rows[-1].objective
            )
        rows.append(BudgetBreakpointRow(lo=b, hi=math.inf, items=items, objective=objective))
    return BudgetBreakpointTable(method=method, rows=tuple(rows))


def _optimal_points(instance: KnapsackInstance, subsets: list):
    """(budget, items, objective) of the optimum at each distinct subset
    sum, from the ``(weight, combo)`` pairs sorted by weight."""
    best: tuple[tuple[int, ...], float] = ((), 0.0)
    for b, group in itertools.groupby(subsets, key=itemgetter(0)):
        best = _best(instance, best, map(itemgetter(1), group))
        yield (b, *best)


def _greedy_points(instance: KnapsackInstance, sums: list[float]):
    """(budget, items, objective) where the greedy selection changes, over
    the sorted distinct subset sums: prefix j of the purchase order from the
    first sum it admits, unless that sum admits prefix j + 1 as well."""
    order, spent = _purchase_order(instance)
    starts = [bisect_left(sums, s) for s in spent] + [len(sums)]
    for j in range(instance.n + 1):
        if starts[j] < starts[j + 1]:
            yield sums[starts[j]], order[:j], float(sum(instance.values[i] for i in order[:j]))
