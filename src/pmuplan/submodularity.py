"""Brute-force submodularity audit over nested subset triples.

Given a ground set of buses, a protected base set nu, and target sizes
|A| and |B|, the auditor enumerates every triple (A, B, s) with

    nu ⊆ A ⊆ B ⊂ omega,  s ∈ omega \\ B

evaluates a set function f on the four placements A, A+s, B, B+s, and
classifies the marginal difference

    margin = [f(A+s) - f(A)] - [f(B+s) - f(B)]

A function with diminishing returns (submodular) has margin ≥ 0 on every
triple; any clearly negative margin is a counterexample. Margins inside a
tolerance band around zero are tallied separately as ties so that exact
modular functions do not masquerade as either class.

The enumeration is lexicographic in (A, B, s), so counterexample lists are
reproducible run to run and mergeable across work slices.

enumerate_triples and classify_triple state the definition one triple at a
time. audit computes the same tally without an object per triple: it holds
placements as int bitmasks over the sorted bus ids, walks (A, B) blocks with
f(A) and f(B) read once per block, caches metric values by mask, and builds
records only for the counterexamples it keeps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "MarginClass",
    "SubsetTriple",
    "MarginRecord",
    "ClassificationTally",
    "MetricEvaluationError",
    "AuditAbortedError",
    "count_combinations",
    "enumerate_triples",
    "classify_triple",
    "audit",
    "merge_tallies",
    "check_monotone",
]

DEFAULT_TOL = 1e-9
DEFAULT_COUNTEREXAMPLE_CAP = 100
# audit reports progress after every this many triples, and after the last
PROGRESS_INTERVAL = 500


class MarginClass(str, Enum):
    SUBMODULAR = "submodular"
    SUPERMODULAR = "supermodular"
    TIE = "tie"


@dataclass(frozen=True)
class SubsetTriple:
    """One audited configuration: nested sets A ⊆ B and a probe bus s ∉ B."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    s: int

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.a))) != self.a:
            raise ValueError("A must be a strictly sorted tuple")
        if tuple(sorted(set(self.b))) != self.b:
            raise ValueError("B must be a strictly sorted tuple")
        if not set(self.a) <= set(self.b):
            raise ValueError("A must be a subset of B")
        if self.s in self.b:
            raise ValueError(f"probe bus {self.s} already belongs to B")

    @property
    def a_set(self) -> frozenset:
        return frozenset(self.a)

    @property
    def b_set(self) -> frozenset:
        return frozenset(self.b)

    def sort_key(self) -> tuple:
        return (self.a, self.b, self.s)


@dataclass(frozen=True)
class MarginRecord:
    """Four metric evaluations for one triple and the resulting verdict."""

    triple: SubsetTriple
    f_a: float
    f_a_s: float
    f_b: float
    f_b_s: float
    lhs: float
    rhs: float
    margin: float
    verdict: MarginClass

    def to_dict(self) -> dict:
        return {
            "a": list(self.triple.a),
            "b": list(self.triple.b),
            "s": self.triple.s,
            "f_a": self.f_a,
            "f_a_s": self.f_a_s,
            "f_b": self.f_b,
            "f_b_s": self.f_b_s,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "verdict": self.verdict.value,
        }


@dataclass(frozen=True)
class ClassificationTally:
    """Aggregate verdict counts plus retained supermodular counterexamples."""

    total: int
    submodular: int
    supermodular: int
    ties: int
    counterexamples: tuple[MarginRecord, ...]

    def __post_init__(self) -> None:
        if self.total != self.submodular + self.supermodular + self.ties:
            raise ValueError("tally classes do not sum to the total")

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "submodular": self.submodular,
            "supermodular": self.supermodular,
            "ties": self.ties,
            "counterexamples": [r.to_dict() for r in self.counterexamples],
        }


class MetricEvaluationError(RuntimeError):
    """The injected metric raised while evaluating one triple."""

    def __init__(self, triple: SubsetTriple, placement: frozenset):
        self.triple = triple
        self.placement = placement
        super().__init__(
            f"metric evaluation failed on placement {sorted(placement)} "
            f"while auditing triple (A={list(triple.a)}, B={list(triple.b)}, s={triple.s})"
        )


class AuditAbortedError(RuntimeError):
    """An audit stopped early; carries the partial tally for diagnostics."""

    def __init__(self, processed: int, partial: ClassificationTally):
        self.processed = processed
        self.partial = partial
        super().__init__(
            f"audit aborted after {processed} triples "
            f"({partial.submodular} submodular / {partial.supermodular} supermodular "
            f"/ {partial.ties} ties so far)"
        )


def count_combinations(omega: int, nu: int, a: int, b: int) -> int:
    """Number of (A, B, s) triples for the given cardinalities.

    alpha = C(omega-nu, a-nu) * C(omega-a, b-a) * C(omega-b, 1)
    """
    for name, val in (("omega", omega), ("nu", nu), ("a", a), ("b", b)):
        if not isinstance(val, int) or val < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {val!r}")
    if not (nu <= a <= b < omega):
        raise ValueError(
            f"size ordering violated: need nu <= a <= b < omega, "
            f"got nu={nu}, a={a}, b={b}, omega={omega}"
        )
    return comb(omega - nu, a - nu) * comb(omega - a, b - a) * comb(omega - b, 1)


def enumerate_triples(
    omega: Iterable[int], nu: Iterable[int], a_size: int, b_size: int
) -> Iterator[SubsetTriple]:
    """Yield every valid triple exactly once, lexicographically by (A, B, s).

    Nested itertools.combinations over sorted candidate pools produces the
    lexicographic order directly: for two distinct sets sharing the fixed
    part, the sorted-tuple comparison is decided by the smallest element in
    their symmetric difference, which the fixed part never contains.
    """
    omega_t = tuple(sorted(set(omega)))
    nu_t = tuple(sorted(set(nu)))
    if not set(nu_t) <= set(omega_t):
        raise ValueError("nu must be a subset of omega")
    # validates nu <= a <= b < omega as a side effect
    count_combinations(len(omega_t), len(nu_t), a_size, b_size)

    nu_set = set(nu_t)
    free = [x for x in omega_t if x not in nu_set]
    for extra_a in itertools.combinations(free, a_size - len(nu_t)):
        a = tuple(sorted(nu_t + extra_a))
        a_set = set(a)
        rest = [x for x in omega_t if x not in a_set]
        for extra_b in itertools.combinations(rest, b_size - a_size):
            b = tuple(sorted(a + extra_b))
            b_set = set(b)
            for s in omega_t:
                if s not in b_set:
                    yield SubsetTriple(a=a, b=b, s=s)


def classify_triple(
    f: Callable[[frozenset], float], triple: SubsetTriple, tol: float = DEFAULT_TOL
) -> MarginRecord:
    """Evaluate f on the triple's four placements and classify the margin.

    Verdict rule: submodular iff margin >= +tol, supermodular iff
    margin <= -tol, tie otherwise. Metric failures propagate with the
    offending triple and placement attached.
    """
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    a = triple.a_set
    b = triple.b_set
    evals = {}
    for placement in (a, a | {triple.s}, b, b | {triple.s}):
        try:
            evals[placement] = float(f(placement))
        except Exception as exc:
            raise MetricEvaluationError(triple, placement) from exc
    lhs = evals[a | {triple.s}] - evals[a]
    rhs = evals[b | {triple.s}] - evals[b]
    margin = lhs - rhs
    if margin >= tol:
        verdict = MarginClass.SUBMODULAR
    elif margin <= -tol:
        verdict = MarginClass.SUPERMODULAR
    else:
        verdict = MarginClass.TIE
    return MarginRecord(
        triple=triple,
        f_a=evals[a],
        f_a_s=evals[a | {triple.s}],
        f_b=evals[b],
        f_b_s=evals[b | {triple.s}],
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        verdict=verdict,
    )


def _blocks(
    bits: Sequence[int], nu_mask: int, a_extra: int, b_extra: int, skip: int
) -> Iterator[tuple[int, int, list[int]]]:
    """Yield ``(A, B, probes)`` as bitmasks for every (A, B) block from block
    number ``skip`` on, in the order of enumerate_triples.

    Every block holds the same number of probes and every A the same number
    of blocks, so the skipped prefix is found by division and never built.
    """
    free = [bit for bit in bits if not bit & nu_mask]
    skip_a, skip_b = divmod(skip, comb(len(free) - a_extra, b_extra))
    for extra_a in itertools.islice(itertools.combinations(free, a_extra), skip_a, None):
        a = nu_mask + sum(extra_a)
        rest = [bit for bit in free if not bit & a]
        for extra_b in itertools.islice(itertools.combinations(rest, b_extra), skip_b, None):
            b = a + sum(extra_b)
            yield a, b, [bit for bit in rest if not bit & b]
        skip_b = 0


def audit(
    case,
    metric: Callable[[frozenset], float],
    nu: Iterable[int],
    a_size: int,
    b_size: int,
    tol: float = DEFAULT_TOL,
    counterexample_cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
    start: int = 0,
    stop: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> ClassificationTally:
    """Classify every triple over the case's bus set and tally the verdicts.

    ``metric`` is any set function mapping a frozenset of bus ids to a real
    number. It runs once per distinct placement: values are cached for the
    duration of the call, keyed by the placement's bitmask over the sorted
    bus ids. ``start``/``stop`` restrict the run to a contiguous slice of
    the lexicographic triple stream so external drivers can split the work;
    partial tallies recombine with merge_tallies. ``progress(done, planned)``
    is called every PROGRESS_INTERVAL triples and after the last one.

    The verdicts, values and counterexample order are those of
    classify_triple applied to enumerate_triples, but no object is built
    per triple: the walk runs over (A, B) blocks of int bitmasks, reads f(A)
    and f(B) once per block, and builds a MarginRecord only for a
    counterexample it keeps. Placements are evaluated lazily in
    classify_triple's order, f(A), f(A+s), f(B), f(B+s), so on a metric
    failure the audit aborts with the same offending triple and placement,
    and the tally accumulated so far attached.
    """
    ids = tuple(sorted(case.bus_ids))
    nu_ids = set(nu)
    total = count_combinations(len(ids), len(nu_ids), a_size, b_size)
    if not nu_ids <= set(ids):
        raise ValueError("nu must be a subset of omega")
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    if start < 0 or (stop is not None and stop < 0):
        raise ValueError("start and stop must be nonnegative")
    first = min(start, total)
    planned = (total if stop is None else min(stop, total)) - first

    bits = [1 << i for i in range(len(ids))]
    nu_mask = sum(bit for bus, bit in zip(ids, bits) if bus in nu_ids)
    cache: dict[int, float] = {}

    def buses(mask: int) -> list[int]:
        return [bus for bus, bit in zip(ids, bits) if mask & bit]

    def triple(a: int, b: int, s: int) -> SubsetTriple:
        return SubsetTriple(a=tuple(buses(a)), b=tuple(buses(b)), s=ids[s.bit_length() - 1])

    def evaluate(mask: int, a: int, b: int, s: int) -> float:
        placement = frozenset(buses(mask))
        try:
            value = cache[mask] = float(metric(placement))
        except Exception as exc:
            raise MetricEvaluationError(triple(a, b, s), placement) from exc
        return value

    lookup = cache.get
    submod = supermod = ties = 0
    counterexamples: list[MarginRecord] = []
    processed = 0
    report = min(PROGRESS_INTERVAL, planned) if progress is not None else -1
    block, offset = divmod(first, len(ids) - b_size)
    blocks = _blocks(bits, nu_mask, a_size - len(nu_ids), b_size - a_size, block)
    try:
        for a, b, probes in blocks:
            if processed >= planned:
                break
            probes = probes[offset : offset + planned - processed]
            offset = 0
            f_a = lookup(a)
            if f_a is None:
                f_a = evaluate(a, a, b, probes[0])
            f_b = None
            for s in probes:
                f_a_s = lookup(a | s)
                if f_a_s is None:
                    f_a_s = evaluate(a | s, a, b, s)
                if f_b is None:
                    f_b = lookup(b)
                    if f_b is None:
                        f_b = evaluate(b, a, b, s)
                f_b_s = lookup(b | s)
                if f_b_s is None:
                    f_b_s = evaluate(b | s, a, b, s)
                lhs = f_a_s - f_a
                rhs = f_b_s - f_b
                margin = lhs - rhs
                if margin >= tol:
                    submod += 1
                elif margin <= -tol:
                    supermod += 1
                    if len(counterexamples) < counterexample_cap:
                        counterexamples.append(
                            MarginRecord(
                                triple=triple(a, b, s),
                                f_a=f_a,
                                f_a_s=f_a_s,
                                f_b=f_b,
                                f_b_s=f_b_s,
                                lhs=lhs,
                                rhs=rhs,
                                margin=margin,
                                verdict=MarginClass.SUPERMODULAR,
                            )
                        )
                else:
                    ties += 1
                processed += 1
                if processed == report:
                    progress(processed, planned)
                    report = min(processed + PROGRESS_INTERVAL, planned)
    except MetricEvaluationError as err:
        partial = ClassificationTally(
            total=processed,
            submodular=submod,
            supermodular=supermod,
            ties=ties,
            counterexamples=tuple(counterexamples),
        )
        raise AuditAbortedError(processed, partial) from err

    return ClassificationTally(
        total=processed,
        submodular=submod,
        supermodular=supermod,
        ties=ties,
        counterexamples=tuple(counterexamples),
    )


def merge_tallies(
    parts: Sequence[ClassificationTally],
    counterexample_cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
) -> ClassificationTally:
    """Combine slice tallies; associative and order-independent.

    Counterexamples are re-sorted lexicographically after concatenation and
    re-capped, so a merged result matches the equivalent serial run whenever
    each slice retained at least its own lexicographic prefix.
    """
    if not parts:
        raise ValueError("nothing to merge")
    records = [r for p in parts for r in p.counterexamples]
    records.sort(key=lambda r: r.triple.sort_key())
    return ClassificationTally(
        total=sum(p.total for p in parts),
        submodular=sum(p.submodular for p in parts),
        supermodular=sum(p.supermodular for p in parts),
        ties=sum(p.ties for p in parts),
        counterexamples=tuple(records[:counterexample_cap]),
    )


def check_monotone(
    f: Callable[[frozenset], float],
    chain: Sequence[Iterable[int]],
    tol: float = 1e-12,
) -> bool:
    """True iff f is non-increasing along a nested increasing chain of sets."""
    sets = [frozenset(c) for c in chain]
    for small, big in zip(sets, sets[1:]):
        if not small <= big:
            raise ValueError("chain is not nested")
    values = [float(f(s)) for s in sets]
    return all(later <= earlier + tol for earlier, later in zip(values, values[1:]))
