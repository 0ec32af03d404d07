"""Multi-stage placement planning: exhaustive budget-constrained vs greedy.

Both planners grow a placement on top of a protected base set, one stage per
added sensor, driven by an injected set function ``metric(frozenset) -> float``
that is minimized. The budget-constrained planner re-optimizes from scratch at
every stage by enumerating all k-subsets of the free buses, so earlier picks
carry no weight; the greedy planner keeps its history and appends the single
best bus per stage. Greedy can therefore never beat the exhaustive plan, but
it produces an incremental priority list an operator can actually follow.

Both planners run one stage search with one tie rule: the first candidate,
in enumeration order, whose value lies within ``tie_tol`` of the stage
minimum wins. Greedy enumerates the free buses in ascending id order, so the
lowest bus id in the tie group wins; the exhaustive planner enumerates
``itertools.combinations(free, k)``, so the lexicographically smallest
addition set wins. ``tie_tol`` must be finite and >= 0: NaN or a negative
one would leave a stage without a winner, and inf would tie every candidate.

The search walks groups of candidates that share the buses they add on top
of the base: one group per greedy stage, and one per exhaustive
(k-1)-prefix over the free buses after it. It ranks a group by keys. With
the metric's incremental ``scorer`` (see
:func:`~pmuplan.estimation.metric_function`), one call per group gives
integer keys, the candidates' metered counts, and the count rule that maps
a key to the metric's value; at a fixed stage size the value rises
strictly with the count, so comparing integers compares values. Without a
scorer the keys are the metric's own values and the rule is the identity.
A group costs one comprehension and one ``min``, and the winner a few
``index`` lookups; the rule runs only on the tie band and the winner, so
the reported value is the metric's float, bit for bit. The metric is
called wherever there is no scorer or a key is None, in enumeration order,
so a failure raises at the first failing candidate.

At stage 1 the two planners solve one problem: greedy's single group, no
buses added over every free bus, is ``combinations(free, 1)`` in the same
order, scored the same way under the same tie rule. So
:func:`compare_plans` reads its exhaustive stage 1 from the greedy plan and
runs the exhaustive search from stage 2 on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, inf
from typing import Callable, Iterable, Sequence

from .network import _require_buses, _require_count, _require_tol

__all__ = [
    "StageResult",
    "PriorityList",
    "ComparisonRow",
    "PlanComparison",
    "EnumerationCapError",
    "CandidateEvaluationError",
    "greedy_plan",
    "budget_constrained_plan",
    "compare_plans",
    "DEFAULT_ENUM_CAP",
]

DEFAULT_ENUM_CAP = 10_000_000
DEFAULT_TIE_TOL = 1e-9


class EnumerationCapError(RuntimeError):
    """Exhaustive stage would exceed the subset-enumeration budget."""

    def __init__(self, candidates: int, cap: int, k: int):
        self.candidates = candidates
        self.cap = cap
        self.k = k
        super().__init__(
            f"budget-constrained stage {k} needs {candidates} subset evaluations, "
            f"over the cap of {cap}; use the greedy planner for problems this size"
        )


class CandidateEvaluationError(RuntimeError):
    """The injected metric failed while scoring one candidate."""

    def __init__(self, stage: int, candidate):
        self.stage = stage
        self.candidate = candidate
        super().__init__(f"metric failed at stage {stage} on candidate {candidate!r}")


@dataclass(frozen=True)
class StageResult:
    """Additions beyond the base after one stage, with the achieved value."""

    stage: int
    selected: tuple[int, ...]
    metric_value: float

    def __post_init__(self) -> None:
        if self.stage < 1:
            raise ValueError("stage numbering starts at 1")
        if len(self.selected) != self.stage:
            raise ValueError("stage k must select exactly k additions")
        if tuple(sorted(set(self.selected))) != self.selected:
            raise ValueError("selected must be a strictly sorted tuple")


@dataclass(frozen=True)
class PriorityList:
    """Greedy output: base set, append order, and the value after each prefix."""

    base: tuple[int, ...]
    order: tuple[int, ...]
    stage_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ValueError("priority order must not repeat buses")
        if set(self.base) & set(self.order):
            raise ValueError("priority order must not revisit the base set")
        if len(self.order) != len(self.stage_values):
            raise ValueError("one value per stage required")

    def stage_result(self, stage: int) -> StageResult:
        """Stage-k set is the first k entries of the order, as a sorted set."""
        _require_count("stage", stage, 1, len(self.order))
        return StageResult(
            stage=stage,
            selected=tuple(sorted(self.order[:stage])),
            metric_value=self.stage_values[stage - 1],
        )

    def to_dict(self) -> dict:
        return {
            "base": list(self.base),
            "order": list(self.order),
            "stage_values": list(self.stage_values),
        }


@dataclass(frozen=True)
class ComparisonRow:
    stage: int
    budget: StageResult
    greedy: StageResult
    greedy_added: int
    sets_differ: bool
    greedy_strictly_worse: bool

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "budget_selected": list(self.budget.selected),
            "budget_value": self.budget.metric_value,
            "greedy_selected": list(self.greedy.selected),
            "greedy_added": self.greedy_added,
            "greedy_value": self.greedy.metric_value,
            "sets_differ": self.sets_differ,
            "greedy_strictly_worse": self.greedy_strictly_worse,
        }


@dataclass(frozen=True)
class PlanComparison:
    """Stage-aligned pairing of both planners over the same base and metric."""

    base: tuple[int, ...]
    rows: tuple[ComparisonRow, ...]
    greedy_order: tuple[int, ...]

    @property
    def differing_stages(self) -> tuple[int, ...]:
        return tuple(r.stage for r in self.rows if r.sets_differ)

    @property
    def strictly_worse_stages(self) -> tuple[int, ...]:
        return tuple(r.stage for r in self.rows if r.greedy_strictly_worse)

    def to_dict(self) -> dict:
        return {
            "base": list(self.base),
            "greedy_order": list(self.greedy_order),
            "rows": [r.to_dict() for r in self.rows],
            "differing_stages": list(self.differing_stages),
            "strictly_worse_stages": list(self.strictly_worse_stages),
        }


def _free_buses(case, nu: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sorted base and the case's other buses, in ascending id order."""
    base_set = _require_buses(case, nu, "base")
    free = tuple(bus for bus in case.position_bits if bus not in base_set)
    return tuple(sorted(base_set)), free


def _scorer(metric, base: Iterable[int]) -> Callable[[Sequence[int], list[int]], tuple] | None:
    """The metric's ``scorer(base)``, or None when it has none."""
    scorer = getattr(metric, "scorer", None)
    return None if scorer is None else scorer(base)


def _evaluate(stage, metric, base: frozenset, added, bus, bare: bool) -> float:
    """The metric's float on ``base`` plus ``added`` plus ``bus``. A metric
    that raises or returns NaN raises a CandidateEvaluationError naming the
    candidate: the bus when ``bare``, else the tuple of ``added`` and the
    bus."""
    try:
        value = float(metric(base.union(added, (bus,))))
        if value != value:
            raise ValueError("the metric returned NaN")
    except Exception as exc:
        raise CandidateEvaluationError(stage, bus if bare else (*added, bus)) from exc
    return value


def _stage_search(stage, groups, score, metric, base: frozenset, tie_tol: float, bare: bool):
    """The first candidate, in enumeration order, within ``tie_tol`` of the minimum.

    ``groups`` yields ``(added, tail)`` pairs: each bus of ``tail`` in turn,
    on top of ``base`` and ``added``, is one candidate. ``score(added,
    tail)`` gives a group's keys, one per candidate, and the rule
    ``value(key)`` that gives the metric's float; every candidate of one
    search adds as many buses, so one rule serves every group. With no
    scorer, the keys are the metric's floats, from calls in enumeration
    order (see :func:`_evaluate`), and the rule is the identity. The
    search compares keys and computes values only for the tie band and the
    winner. That is the float rule: ``value`` never decreases as the key
    grows, so the smallest key has the smallest value, and the keys whose
    values lie within ``tie_tol`` of it, the tie band, are all the keys up
    to a bound.

    The first group and each group whose smallest key is below the minimum
    so far are kept; the others are passed over. Let c be the first
    candidate in the band. Every candidate before c lies outside the band,
    so above c in value and in key. So c's group is kept, no earlier kept
    group has a key in the band, and c is the first index of a band key in
    its group. The search finds it from the first index of the group's
    smallest key, stepping to the first index of the smallest key before
    it while that key is in the band. Returns ``(added, bus, value)``.

    A None key marks a placement the metric raises on, so the metric is
    called there, before any later candidate; should it return, the
    search raises all the same.
    """
    best, kept = inf, []
    for added, tail in groups:
        if score is None:
            keys = [_evaluate(stage, metric, base, added, bus, bare) for bus in tail]
            value = float  # the identity on keys that are floats
        else:
            keys, value = score(added, tail)
        try:
            low = min(keys)
        except TypeError:  # None beside int keys
            low = None
        if low is None:
            bus = tail[keys.index(None)]
            got = _evaluate(stage, metric, base, added, bus, bare)
            raise CandidateEvaluationError(stage, bus if bare else (*added, bus)) from ValueError(
                f"the metric returned {got!r} where its scorer has no key")
        if low < best or not kept:
            best = low
            kept.append((low, added, tail, keys))
    limit = value(best) + tie_tol
    low, added, tail, keys = next(group for group in kept if value(group[0]) <= limit)
    first = keys.index(low)
    while first and value(low := min(keys[:first])) <= limit:  # an earlier key is in the band
        first = keys.index(low)
    return added, tail[first], value(keys[first])


def greedy_plan(
    case,
    nu: Iterable[int],
    metric: Callable[[frozenset], float],
    stages: int,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> PriorityList:
    """Append the value-minimizing bus per stage, keeping all prior picks.

    Within a stage, every free bus is scored with the metric on the base
    plus prior picks plus that bus, in ascending id order; the first within
    ``tie_tol`` of the minimum, the lowest id of the tie group, wins. The
    recorded stage value is the chosen candidate's own evaluation. With a
    scorer, one call per stage scores every candidate, at one OR and one
    popcount each.
    """
    _require_tol("tie tolerance", tie_tol)
    base, free = _free_buses(case, nu)
    _require_count("stages", stages, 0, len(free))

    base_set = frozenset(base)
    score = _scorer(metric, base)
    chosen: list[int] = []
    values: list[float] = []
    remaining = list(free)
    for stage in range(1, stages + 1):
        _, bus, value = _stage_search(
            stage, [(chosen, remaining)], score, metric, base_set, tie_tol, bare=True
        )
        remaining.remove(bus)
        chosen.append(bus)
        values.append(value)

    return PriorityList(base=base, order=tuple(chosen), stage_values=tuple(values))


def budget_constrained_plan(
    case,
    nu: Iterable[int],
    metric: Callable[[frozenset], float],
    k: int,
    enum_cap: int = DEFAULT_ENUM_CAP,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> StageResult:
    """Exhaustively pick the best k additions, ignoring any earlier stages.

    Every k-subset of the free buses is evaluated, in
    ``itertools.combinations(free, k)`` order; the first within ``tie_tol``
    of the minimum, the lexicographically smallest addition tuple of the tie
    group, wins. Refuses to start when C(free, k) exceeds ``enum_cap``.
    The subsets are walked one (k-1)-prefix of the free buses at a time,
    over the free buses after its last, so a scorer scores them in one call
    per prefix.
    """
    _require_tol("tie tolerance", tie_tol)
    _require_count("enum_cap", enum_cap)
    base, free = _free_buses(case, nu)
    _require_count("k", k, 1, len(free))
    candidates = comb(len(free), k)
    if candidates > enum_cap:
        raise EnumerationCapError(candidates, enum_cap, k)

    # each (k-1)-prefix with a non-empty tail, in lexicographic order, so the
    # combos come in itertools.combinations(free, k) order
    groups = (
        (tuple(free[i] for i in prefix), free[prefix[-1] + 1 :] if prefix else free)
        for prefix in itertools.combinations(range(len(free) - 1), k - 1)
    )
    added, bus, value = _stage_search(
        k, groups, _scorer(metric, base), metric, frozenset(base), tie_tol, bare=False
    )
    return StageResult(stage=k, selected=(*added, bus), metric_value=value)


def compare_plans(
    case,
    nu: Iterable[int],
    metric: Callable[[frozenset], float],
    stages: int,
    enum_cap: int = DEFAULT_ENUM_CAP,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> PlanComparison:
    """Run both planners stage by stage and flag where greedy falls behind.

    The exhaustive stage 1 is greedy's first pick: the same candidates,
    enumeration order, tie rule and values, so it is read from the greedy
    plan, not searched again. It still counts ``len(free)`` subsets against
    ``enum_cap``, and over the cap the exhaustive planner raises as it does
    at any stage. From stage 2 on, :func:`budget_constrained_plan` runs.

    Raises if the exhaustive plan ever scores more than ``tie_tol`` above
    greedy: its pick lies within ``tie_tol`` of a minimum that greedy's set
    is a candidate for, so that would mean the injected metric is not a
    function of the placement set. The check runs on every row, but at
    stage 1, where both rows are one result, it cannot fire.
    """
    _require_tol("tie tolerance", tie_tol)
    _require_count("enum_cap", enum_cap)
    _require_count("stages", stages)
    if stages < 1:
        raise ValueError("comparison needs at least one stage")
    greedy = greedy_plan(case, nu, metric, stages, tie_tol=tie_tol)
    base = greedy.base
    free = len(case.position_bits) - len(base)
    rows = []
    for stage in range(1, stages + 1):
        gres = greedy.stage_result(stage)
        if stage == 1 and free <= enum_cap:
            budget = gres
        else:
            budget = budget_constrained_plan(
                case, base, metric, stage, enum_cap=enum_cap, tie_tol=tie_tol
            )
        if budget.metric_value > gres.metric_value + tie_tol:
            raise RuntimeError(
                f"exhaustive stage {stage} scored worse than greedy; "
                f"the metric is not deterministic over placements"
            )
        rows.append(
            ComparisonRow(
                stage=stage,
                budget=budget,
                greedy=gres,
                greedy_added=greedy.order[stage - 1],
                sets_differ=set(budget.selected) != set(gres.selected),
                greedy_strictly_worse=gres.metric_value
                > budget.metric_value + tie_tol,
            )
        )
    return PlanComparison(base=base, rows=tuple(rows), greedy_order=greedy.order)
