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

from .network import _ids_in, _require_buses, _require_count, _require_ids, _require_tol

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


class _SortedIds(dict):
    """Mask of a case's position bits -> the sorted ids of its buses, as
    :meth:`~pmuplan.network.NetworkCase.buses_in` lists them, each mask
    decoded once per audit call. ``ids`` lists the case's ids by position."""

    __slots__ = ("ids", "_buses_in")

    def __init__(self, case) -> None:
        super().__init__()
        self.ids = case.bus_ids
        self._buses_in = case.buses_in

    def __missing__(self, mask: int) -> tuple[int, ...]:
        value = self[mask] = tuple(self._buses_in(mask))
        return value


# the slots' own setters, which a frozen class's __setattr__ does not guard
_set_a, _set_b, _set_s = (SubsetTriple.__dict__[name].__set__ for name in ("a", "b", "s"))


def _mask_triple(ids_of: _SortedIds, a: int, b: int, s: int) -> SubsetTriple:
    """The SubsetTriple of masks ``a`` and ``b`` over a case's position bits
    and probe bit ``s``, their ids read from ``ids_of``, with SubsetTriple's
    four checks made without ``__post_init__``: the ids are strictly
    ascending as ``ids_of`` decodes them, A ⊆ B is ``not a & ~b`` and
    s ∉ B is ``not s & b``. When a check fails, the public constructor
    raises SubsetTriple's own ValueError."""
    ids_a = ids_of[a]
    ids_b = ids_of[b]
    probe = ids_of.ids[s.bit_length() - 1]
    if a & ~b or s & b:
        return SubsetTriple(ids_a, ids_b, probe)  # raises for the failed check
    triple = object.__new__(SubsetTriple)
    _set_a(triple, ids_a)
    _set_b(triple, ids_b)
    _set_s(triple, probe)
    return triple


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


# MarginRecord's slot setters, in field order, for _kept_records
_record_setters = tuple(
    MarginRecord.__dict__[name].__set__
    for name in ("triple", "f_a", "f_a_s", "f_b", "f_b_s", "lhs", "rhs", "margin", "verdict")
)


def _kept_records(case, kept: list[tuple]) -> tuple[MarginRecord, ...]:
    """The supermodular MarginRecords of ``kept``, one per ``(a, b, s, f_a,
    f_a_s, f_b, f_b_s)`` as the audit notes it, equal to what the public
    constructor makes of them: each is made with ``object.__new__`` and
    its slots' setters, its triple by :func:`_mask_triple`. The case's ids
    are read by position only when there is a record to build."""
    if not kept:
        return ()
    ids_of = _SortedIds(case)
    (set_triple, set_f_a, set_f_a_s, set_f_b, set_f_b_s, set_lhs, set_rhs, set_margin,
     set_verdict) = _record_setters
    new, verdict = object.__new__, MarginClass.SUPERMODULAR
    records = []
    for a, b, s, f_a, f_a_s, f_b, f_b_s in kept:
        lhs = f_a_s - f_a  # the differences as the loops take them
        rhs = f_b_s - f_b
        record = new(MarginRecord)
        set_triple(record, _mask_triple(ids_of, a, b, s))
        set_f_a(record, f_a)
        set_f_a_s(record, f_a_s)
        set_f_b(record, f_b)
        set_f_b_s(record, f_b_s)
        set_lhs(record, lhs)
        set_rhs(record, rhs)
        set_margin(record, lhs - rhs)
        set_verdict(record, verdict)
        records.append(record)
    return tuple(records)


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
    number. A metric whose ``case`` attribute is ``case`` itself, a
    :func:`~pmuplan.estimation.metric_function` or a ``functools.wraps``
    wrapper of one, is shared: it is handed each placement as the int mask
    of its position bits (see
    :attr:`~pmuplan.network.NetworkCase.position_bits`), undecoded, and
    must score it as the frozenset of those ids. ``start``/``stop``
    restrict the run to a contiguous slice of the lexicographic triple
    stream; partial tallies recombine with merge_tallies.
    ``progress(done, planned)`` is called every PROGRESS_INTERVAL triples
    and after the last one.
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

    Values are cached by placement mask in ``metric.scores`` when the
    metric is shared, so audits of one
    :func:`~pmuplan.estimation.metric_function` share them, else for the
    call. The marginal row of a placement X, ``{s: f(X+s) - f(X)}`` over
    the bits outside X in ascending-id order, goes to ``metric.margins``
    under the same condition, or to a table for the call. A row is stored
    only when the score table holds every value it needs: it is tried for
    A when f(A) is scored at A's start, and for B under such an A. So a
    cold audit stores no row, and no row holds a value the metric failed
    to return. A block whose A and B have rows is tallied from them, by
    the same subtractions as the per-triple loop, unless it holds the
    ``start`` offset, a progress checkpoint or ``stop``.

    A mask is decoded into ids, by
    :meth:`~pmuplan.network.NetworkCase.buses_in`'s decoder, only to hand
    it to a metric that is not shared, to name the placement of a
    MetricEvaluationError, and for kept records; an audit of a shared
    metric that keeps no record and meets no failure decodes no mask. A
    kept counterexample is noted as its masks and four values, and its
    record is built at the one exit that a finished and an aborted audit
    share, so a partial tally keeps its records (see :func:`_kept_records`).
    """
    bits = case.position_bits  # bus id -> position bit, ascending ids
    nu_ids = _require_buses(case, nu, "nu")
    total = count_combinations(len(bits), len(nu_ids), a_size, b_size)
    _require_tol("tolerance", tol)
    _require_count("counterexample_cap", counterexample_cap)
    _require_count("start", start)
    if stop is not None:
        _require_count("stop", stop)
    first = min(start, total)
    planned = (total if stop is None else min(stop, total)) - first

    everyone = (1 << len(bits)) - 1
    free = [bits[bus] for bus in sorted(case._id_set.difference(nu_ids))]
    free_mask = sum(free)
    nu_mask = everyone ^ free_mask
    # a walk of free bits visits them by id when the case's positions ascend
    walk_by_id = case._ascending
    shared = getattr(metric, "case", None) is case
    cache = getattr(metric, "scores", {}) if shared else {}
    margins = getattr(metric, "margins", {}) if shared else {}
    neg_tol = -tol

    def evaluate(x: int, a: int, b: int, s: int) -> float:
        """Score the missed placement x, the block's A or B or either plus
        the probe s: a shared metric takes the mask, any other its ids."""
        try:
            value = cache[x] = float(metric(x if shared else frozenset(_ids_in(case._ids, x))))
        except Exception as exc:
            triple = _mask_triple(_SortedIds(case), a, b, s)
            raise MetricEvaluationError(triple, frozenset(_ids_in(case._ids, x))) from exc
        return value

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
    kept: list[tuple] = []  # (a, b, s, f_a, f_a_s, f_b, f_b_s) per kept counterexample
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
                if walk_by_id:
                    rest, left = [], free_mask & ~a
                    while left:
                        bit = left & -left
                        rest.append(bit)
                        left ^= bit
                else:
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
                                    kept.append(
                                        (a, b, s, f_a, lookup(a | s), lookup(b), lookup(b | s)))
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
                            kept.append((a, b, s, f_a, f_a_s, f_b, f_b_s))
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
    tally = ClassificationTally(processed, submod, supermod, ties, _kept_records(case, kept))
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
