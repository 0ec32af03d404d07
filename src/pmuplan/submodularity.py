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
time; audit computes the same tally over int masks of the case's position
bits, with no object per triple.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .network import _require_buses, _require_count, _require_ids, _require_tol

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


@dataclass(frozen=True, slots=True)
class SubsetTriple:
    """One audited configuration: nested sets A ⊆ B and a probe bus s ∉ B."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    s: int

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        # strictly sorted: each id below the next, so no id repeats
        if not (isinstance(a, tuple) and all(map(operator.lt, a, a[1:]))):
            raise ValueError("A must be a strictly sorted tuple")
        if not (isinstance(b, tuple) and all(map(operator.lt, b, b[1:]))):
            raise ValueError("B must be a strictly sorted tuple")
        members = set(b)
        if not members.issuperset(a):
            raise ValueError("A must be a subset of B")
        if self.s in members:
            raise ValueError(f"probe bus {self.s} already belongs to B")

    @property
    def a_set(self) -> frozenset:
        return frozenset(self.a)

    @property
    def b_set(self) -> frozenset:
        return frozenset(self.b)

    def sort_key(self) -> tuple:
        return (self.a, self.b, self.s)


@dataclass(frozen=True, slots=True)
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
        _require_count(name, val)
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
    Every id must be an int and no bool; the first that is not is named.
    """
    omega_t, nu_t = tuple(omega), tuple(nu)
    _require_ids(omega_t, "omega")
    _require_ids(nu_t, "nu")
    omega_t = tuple(sorted(set(omega_t)))
    nu_t = tuple(sorted(set(nu_t)))
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
    _require_tol("tolerance", tol)
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
    number. ``start``/``stop`` restrict the run to a contiguous slice of the
    lexicographic triple stream; partial tallies recombine with
    merge_tallies. ``progress(done, planned)`` is called every
    PROGRESS_INTERVAL triples and after the last one.
    ``nu`` must hold int ids of the case's buses, ``counterexample_cap``,
    ``start`` and ``stop`` (unless None) must be ints >= 0, and ``tol``
    finite and >= 0; anything else raises ValueError naming the argument
    and the value, before the metric runs.

    The verdicts, values and counterexample order are those of
    classify_triple applied to enumerate_triples. The metric runs once per
    distinct placement, lazily, in classify_triple's order: f(A), f(A+s),
    f(B), f(B+s). When it raises, the audit raises AuditAbortedError with
    the count of triples processed and their tally so far, from a
    MetricEvaluationError naming the triple and the placement.

    Values are cached by placement mask (see
    :attr:`~pmuplan.network.NetworkCase.position_bits`) in
    ``metric.scores`` when ``metric.case`` is ``case`` itself, so audits of
    one :func:`~pmuplan.estimation.metric_function` share them, else for
    the call. The marginal row of a placement X, ``{s: f(X+s) - f(X)}``
    over the bits outside X in ascending-id order, goes to
    ``metric.margins`` under the same condition, or to a table for the call.
    A row is stored only when the score table holds every value it needs:
    it is tried for A when f(A) is scored at A's start, and for B under
    such an A. So a cold audit stores no row, and no row holds a value the
    metric failed to return. A block whose A and B have rows is tallied
    from them, by the same subtractions as the per-triple loop, unless it
    holds the ``start`` offset, a progress checkpoint or ``stop``.
    """
    bits = case.position_bits  # bus id -> position bit, ascending ids
    nu_ids = _require_buses(case, nu, "nu")
    total = count_combinations(len(bits), len(nu_ids), a_size, b_size)
    omega = case._id_set
    _require_tol("tolerance", tol)
    _require_count("counterexample_cap", counterexample_cap)
    _require_count("start", start)
    if stop is not None:
        _require_count("stop", stop)
    first = min(start, total)
    planned = (total if stop is None else min(stop, total)) - first

    everyone = (1 << len(bits)) - 1
    free = [bits[bus] for bus in sorted(omega.difference(nu_ids))]
    nu_mask = everyone ^ sum(free)
    shared = getattr(metric, "case", None) is case
    cache = getattr(metric, "scores", {}) if shared else {}
    margins = getattr(metric, "margins", {}) if shared else {}
    id_tuples: dict[int, tuple[int, ...]] = {}  # mask -> its sorted ids
    supermodular, neg_tol = MarginClass.SUPERMODULAR, -tol

    def triple(a: int, b: int, s: int) -> SubsetTriple:
        """The triple of masks a, b and probe bit s, each mask's sorted ids
        decoded once a call."""
        ids_a = id_tuples.get(a)
        if ids_a is None:
            ids_a = id_tuples[a] = tuple(case.buses_in(a))
        ids_b = id_tuples.get(b)
        if ids_b is None:
            ids_b = id_tuples[b] = tuple(case.buses_in(b))
        return SubsetTriple(ids_a, ids_b, case.buses[s.bit_length() - 1].id)

    def ids_in(mask: int) -> Iterator[int]:
        while mask:
            bit = mask & -mask
            yield case.buses[bit.bit_length() - 1].id
            mask ^= bit

    def evaluate(x: int, a: int, b: int, s: int) -> float:
        """Score the missed placement x, the block's A or B or either plus
        the probe s, decoded from its short side: its set bits, or the
        case's ids but those of its clear bits."""
        if 2 * x.bit_count() <= len(bits):
            placement = frozenset(ids_in(x))
        else:
            placement = omega.difference(ids_in(everyone ^ x))
        try:
            value = cache[x] = float(metric(placement))
        except Exception as exc:
            raise MetricEvaluationError(triple(a, b, s), placement) from exc
        return value

    def record(a: int, b: int, s: int, f_a: float, f_a_s: float, f_b: float,
               f_b_s: float) -> MarginRecord:
        """A kept counterexample, its differences taken as the loops take them."""
        lhs = f_a_s - f_a
        rhs = f_b_s - f_b
        return MarginRecord(triple(a, b, s), f_a, f_a_s, f_b, f_b_s, lhs, rhs, lhs - rhs,
                            supermodular)

    def margin_row(x: int, outside: Iterable[int]) -> dict[int, float] | None:
        """Store and return X's row {s: f(X+s) - f(X)} over ``outside``, the
        bits outside X by id, or None if one of its values is unscored."""
        f_x = lookup(x)
        if f_x is None:
            return None
        row = {}
        for s in outside:
            f_x_s = lookup(x | s)
            if f_x_s is None:
                return None
            row[s] = f_x_s - f_x
        margins[x] = row
        return row

    lookup = cache.get
    submod = supermod = ties = processed = 0
    counterexamples: list[MarginRecord] = []
    room = counterexample_cap  # records the cap still admits
    a_extra, b_extra = a_size - len(nu_ids), b_size - a_size
    width = len(bits) - b_size  # probes per block
    block, offset = divmod(first, width)
    skip_a, skip_b = divmod(block, comb(len(free) - a_extra, b_extra))
    checkpoint = min(PROGRESS_INTERVAL, planned) if progress is not None else planned
    failure = None
    try:
        for extra_a in itertools.islice(itertools.combinations(free, a_extra), skip_a, None):
            if processed >= planned:  # also ends an empty slice, which meets no checkpoint
                break
            a = nu_mask + sum(extra_a)
            f_a = lookup(a)
            gains = None if f_a is None else margins.get(a)  # A's row
            if gains is None:
                rest = [bit for bit in free if not bit & a]
                if f_a is not None:
                    gains = margin_row(a, rest)
            else:
                rest = list(gains)
            for extra_b in itertools.islice(itertools.combinations(rest, b_extra), skip_b, None):
                b = a + sum(extra_b)
                if gains is not None and not offset and processed + width < checkpoint:
                    drops = margins.get(b)  # B's row
                    if drops is None:
                        drops = margin_row(b, [bit for bit in rest if not bit & b])
                    if drops is not None:
                        for s, drop in drops.items():
                            margin = gains[s] - drop
                            if margin >= tol:
                                submod += 1
                            elif margin <= neg_tol:
                                supermod += 1
                                if room > 0:
                                    room -= 1
                                    counterexamples.append(record(
                                        a, b, s, f_a, lookup(a | s), lookup(b), lookup(b | s)))
                            else:
                                ties += 1
                        processed += width
                        continue
                probes = rest
                if offset:
                    probes = [bit for bit in rest if not bit & b][offset:]
                    offset = 0
                f_b = lookup(b)
                for s in probes:
                    if s & b:
                        continue
                    if f_a is None:
                        f_a = evaluate(a, a, b, s)
                    f_a_s = lookup(a | s)
                    if f_a_s is None:
                        f_a_s = evaluate(a | s, a, b, s)
                    if f_b is None:
                        f_b = lookup(b)  # f(A) itself when |A| = |B|
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
                    elif margin <= neg_tol:
                        supermod += 1
                        if room > 0:
                            room -= 1
                            counterexamples.append(record(a, b, s, f_a, f_a_s, f_b, f_b_s))
                    else:
                        ties += 1
                    processed += 1
                    if processed == checkpoint:
                        if progress is not None:
                            progress(processed, planned)
                        if processed == planned:
                            break
                        checkpoint = min(processed + PROGRESS_INTERVAL, planned)
                if processed == planned:
                    break
            skip_b = 0
    except MetricEvaluationError as err:
        failure = err
    tally = ClassificationTally(processed, submod, supermod, ties, tuple(counterexamples))
    if failure is not None:
        raise AuditAbortedError(processed, tally) from failure
    return tally


def merge_tallies(
    parts: Sequence[ClassificationTally],
    counterexample_cap: int = DEFAULT_COUNTEREXAMPLE_CAP,
) -> ClassificationTally:
    """Combine slice tallies; associative and order-independent.

    Counterexamples are re-sorted lexicographically after concatenation and
    re-capped, so a merged result matches the equivalent serial run whenever
    each slice retained at least its own lexicographic prefix. The cap
    must be an int >= 0, as in :func:`audit`.
    """
    if not parts:
        raise ValueError("nothing to merge")
    _require_count("counterexample_cap", counterexample_cap)
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
    _require_tol("tolerance", tol)
    sets = [frozenset(c) for c in chain]
    for small, big in zip(sets, sets[1:]):
        if not small <= big:
            raise ValueError("chain is not nested")
    values = [float(f(s)) for s in sets]
    return all(later <= earlier + tol for earlier, later in zip(values, values[1:]))
