"""Exact reference results for the benchmark, independent of pmuplan.

In the PMU-state scope the average of diag(S) has the closed form

    f(Q) = br(Q) / (|Q| + br(Q))

where br(Q) counts the in-service branches with at least one end in Q
(README, "Design notes"). This module reads only bus ids and branch
endpoints from a MATPOWER case file, evaluates f in ``fractions.Fraction``
and derives from it what the program must output: audit tallies with their
counterexample prefixes, and the greedy and exhaustive stage plans. It
imports nothing from the package under test.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import NamedTuple

# The library's default tie band (1e-9), as the exact binary fraction it is.
TOL = Fraction(1e-9)
COUNTEREXAMPLE_CAP = 100


def _table(text: str, name: str) -> list[list[float]]:
    match = re.search(rf"mpc\.{name}\s*=\s*\[(.*?)\];", text, re.S)
    if match is None:
        raise ValueError(f"case file has no mpc.{name} table")
    rows = []
    for raw in match.group(1).split("\n"):
        line = raw.split("%", 1)[0].strip().rstrip(";").strip()
        if line:
            rows.append([float(tok) for tok in line.split()])
    return rows


class Grid:
    """Bus ids and per-bus incident-branch bitmasks of one case file."""

    def __init__(self, path: Path):
        text = Path(path).read_text()
        self.bus_ids = tuple(sorted(int(row[0]) for row in _table(text, "bus")))
        masks = {bus: 0 for bus in self.bus_ids}
        branches = [row for row in _table(text, "branch") if len(row) <= 10 or row[10] != 0]
        for idx, row in enumerate(branches):
            masks[int(row[0])] |= 1 << idx
            masks[int(row[1])] |= 1 << idx
        self.masks = masks
        self.branch_count = len(branches)

    def incidence(self, buses) -> int:
        out = 0
        for bus in buses:
            out |= self.masks[bus]
        return out

    def score(self, buses) -> Fraction:
        """Exact PMU-scope average of diag(S) for a placement (lower is better)."""
        q = len(set(buses))
        br = self.incidence(buses).bit_count()
        return Fraction(br, q + br)


class Counterexample(NamedTuple):
    a: tuple[int, ...]
    b: tuple[int, ...]
    s: int
    values: tuple[float, float, float, float]  # exact f(A), f(A+s), f(B), f(B+s), rounded


class AuditExpectation(NamedTuple):
    """What ``audit(..., metric_function(gain=True), ...)`` must return.

    Plain tuples of ints and floats: the collector stops scanning them, so
    the expectations held during a run add nothing to the program's
    garbage-collection work.
    """

    total: int
    submodular: int
    supermodular: int
    ties: int
    prefix: tuple[Counterexample, ...]


def audit_expectation(
    grid: Grid, base, a_size: int, b_size: int, cap: int = COUNTEREXAMPLE_CAP,
    seen: set | None = None,
) -> AuditExpectation:
    """Tally every triple (A, B, s) in lexicographic order, exactly.

    The audited function is the gain orientation g = -f, and a triple's
    margin [g(A+s) - g(A)] - [g(B+s) - g(B)] is submodular at >= TOL,
    supermodular at <= -TOL and a tie in between. Every bus set the audit
    scores is added to ``seen``.
    """
    omega = grid.bus_ids
    base = tuple(sorted(set(base)))
    free = [x for x in omega if x not in set(base)]
    gains: dict[frozenset, Fraction] = {}

    def gain(buses: frozenset) -> Fraction:
        if buses not in gains:
            gains[buses] = -grid.score(buses)
        return gains[buses]

    submod = supermod = ties = 0
    prefix: list[Counterexample] = []
    for extra_a in itertools.combinations(free, a_size - len(base)):
        a = tuple(sorted(base + extra_a))
        a_set = frozenset(a)
        rest = [x for x in omega if x not in a_set]
        for extra_b in itertools.combinations(rest, b_size - a_size):
            b = tuple(sorted(a + extra_b))
            b_set = frozenset(b)
            for s in omega:
                if s in b_set:
                    continue
                a_s, b_s = a_set | {s}, b_set | {s}
                margin = (gain(a_s) - gain(a_set)) - (gain(b_s) - gain(b_set))
                if margin >= TOL:
                    submod += 1
                elif margin <= -TOL:
                    supermod += 1
                    if len(prefix) < cap:
                        values = (gain(a_set), gain(a_s), gain(b_set), gain(b_s))
                        prefix.append(Counterexample(a, b, s, tuple(float(v) for v in values)))
                else:
                    ties += 1
    total = submod + supermod + ties
    expected_total = (comb(len(free), a_size - len(base))
                      * comb(len(omega) - a_size, b_size - a_size) * (len(omega) - b_size))
    if total != expected_total:
        raise AssertionError(f"oracle enumerated {total} triples, formula gives {expected_total}")
    if seen is not None:
        seen.update(gains)
    return AuditExpectation(total, submod, supermod, ties, tuple(prefix))


@dataclass(frozen=True)
class PlanExpectation:
    """What ``compare_plans`` must return for a base and a stage count."""

    greedy_order: tuple[int, ...]
    greedy_values: tuple[Fraction, ...]
    budget_sets: tuple[tuple[int, ...], ...]
    budget_values: tuple[Fraction, ...]
    candidates: int
    unique_placements: int


def plan_expectation(grid: Grid, base, stages: int) -> PlanExpectation:
    """Greedy order (lowest id inside the tie band) and exhaustive stage sets
    (lexicographically smallest addition set inside the band)."""
    base_set = frozenset(base)
    free = [x for x in grid.bus_ids if x not in base_set]
    seen: set[frozenset] = set()
    candidates = 0

    def scored(additions) -> Fraction:
        nonlocal candidates
        placement = base_set | frozenset(additions)
        candidates += 1
        seen.add(placement)
        return grid.score(placement)

    order: list[int] = []
    greedy_values: list[Fraction] = []
    for _ in range(stages):
        values = [(c, scored(order + [c])) for c in free if c not in order]
        vmin = min(v for _, v in values)
        winner, value = next((c, v) for c, v in values if v <= vmin + TOL)
        order.append(winner)
        greedy_values.append(value)

    budget_sets: list[tuple[int, ...]] = []
    budget_values: list[Fraction] = []
    for k in range(1, stages + 1):
        values = [(combo, scored(combo)) for combo in itertools.combinations(free, k)]
        vmin = min(v for _, v in values)
        winner, value = min((cv for cv in values if cv[1] <= vmin + TOL), key=lambda cv: cv[0])
        budget_sets.append(winner)
        budget_values.append(value)

    return PlanExpectation(
        tuple(order), tuple(greedy_values), tuple(budget_sets), tuple(budget_values),
        candidates, len(seen),
    )
