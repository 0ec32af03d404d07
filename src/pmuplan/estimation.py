"""The placement score: the average of diag(S), computed by counting.

The measurement model is linear: ``z = H x + e`` with ``x`` the rectangular
bus voltages and ``z`` the stacked voltage/current phasor channels. The WLS
solution maps measurements to fitted values through the projection matrix

    K = H (H' R^-1 H)^-1 H' R^-1

and the residual sensitivity matrix ``S = I - K`` maps measurement errors to
residuals. The average of diag(S) is the quantity every planner in this
package minimizes.

Two state scopes are supported. ``full-state`` carries a (Vr, Vx) pair for
every bus. ``pmu-state`` keeps pairs only for PMU-hosting buses.

For any diagonal R, either branch model and either scope, trace(K) =
rank(H), so the average of diag(S) is ``1 - rank(H)/m``: a structural count
that neither the noise levels nor the branch parameters move. In pmu-state
scope the voltage rows form an identity block, so rank(H) = 2|Q| and the
score is ``br(Q) / (|Q| + br(Q))`` with ``br(Q)`` the metered branches
(metered branch ends under per-end dedupe). In full-state
scope rank(H) = 2N exactly when every bus hosts a PMU or neighbors one, and
the score is ``1 - 2N/m``. :func:`placement_metric` therefore scores by
counting and takes neither the noise levels nor the branch model. The
Jacobian and SVD pipeline, which takes both, is :mod:`pmuplan.linalg`; it
serves the per-channel ``metrics`` report and the tests that pin the count
against it. This module is pure Python and never loads numpy, nor do the
planners and the audit that call it.

The score is not monotone in the placement. In pmu-state scope, adding bus
s lowers it only when the branches it newly meters, d(s|Q), number fewer
than br(Q)/|Q|; in full-state scope every added bus raises it, since m
grows with each new voltage phasor and newly metered branch while 2N stays
fixed.

Every count comes from one accumulator in :mod:`pmuplan.measurements`. It
ORs the :attr:`~pmuplan.network.NetworkCase.incidence` rows of a set of
buses, the metered masks always and the closed-neighborhood masks only in
full-state scope, and validates the buses as the channel list does. The
count rule :func:`_count_rule` turns a count into a value, and
:func:`placement_metric` raises where there is none. The set
function :func:`metric_function` returns calls it; where every bus of the
case can host a PMU, f also carries the planners' scorer, which ORs a base
once and a stage's or prefix's added buses once per call, then keys each
candidate bus by its metered count, at one OR and one popcount, and hands
back the count rule with the keys. The audit calls f, keeping its
values in the score table f carries, and the marginal rows it builds from
them in a second table beside it.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Sequence

from .measurements import (
    DEFAULT_CHANNEL_LIMIT,
    METERED_COLUMN,
    PmuPlacement,
    _busiest_over_limit,
    _is_channel_limit,
    _union,
)
from .network import NetworkCase

__all__ = [
    "StateScope",
    "UnobservableStateError",
    "placement_metric",
    "metric_function",
]


class StateScope(str, Enum):
    FULL = "full-state"
    PMU = "pmu-state"


def _state_scope(scope) -> StateScope:
    """``scope`` as a StateScope member, which passes on two identity tests;
    a value that is neither member nor member value raises ValueError."""
    if scope is StateScope.PMU or scope is StateScope.FULL:
        return scope
    try:
        return StateScope(scope)
    except ValueError:
        raise ValueError(f"scope must be a StateScope or its value, got {scope!r}") from None


class UnobservableStateError(ValueError):
    """The gain matrix H'R^-1H is numerically singular."""

    def __init__(self, null_dimension: int):
        self.null_dimension = null_dimension
        super().__init__(
            f"state not observable from the given channels: gain matrix has a "
            f"null space of dimension {null_dimension}"
        )


def placement_metric(
    case: NetworkCase,
    placement: PmuPlacement,
    scope: StateScope = StateScope.PMU,
    dedupe: str = "by-branch",
) -> float:
    """Average of diag(S) for the placement's induced channels; lower is better.

    The average is the structural count ``(m - n) / m`` (see the module
    docstring): ``m`` is the channel count, ``n`` the state dimension, 2|Q|
    in pmu-state scope and 2N in full-state scope. It is computed as one
    exact integer division, so the result is the correctly rounded
    rational; no channel list, Jacobian or SVD is built. The counts read
    the placement's ``bus_set``, unsorted, at one mask OR per bus, or, for
    a placement of all but at most N/8 buses, about one per bus outside
    it: 1.2 us at 116 of ieee118's buses, against 6.5 us bus by bus (see
    :func:`~pmuplan.measurements._union`). The noise levels
    and the branch model cannot move it, so it takes neither;
    :func:`~pmuplan.linalg.sensitivity_report` does.

    Raises
    ------
    KeyError
        A placement bus is not in the case.
    ChannelLimitError
        A placement bus has more incident branches than the channel limit.
    ValueError
        Unknown dedupe policy or empty placement.
    UnobservableStateError
        Full-state scope and some bus neither hosts a PMU nor neighbors
        one. The null dimension is ``n - m`` when there are fewer channels
        than states, else twice the number of unobserved buses.
    """
    scope = _state_scope(scope)
    full = scope is StateScope.FULL
    k, metered, observed = _union(case, placement.bus_set, dedupe, placement.channel_limit, full)
    count = metered.bit_count()
    unobserved = len(case.buses) - observed.bit_count()
    if not k:
        raise ValueError("measurement set is empty")
    if full and unobserved:
        m, n = 2 * k + 2 * count, 2 * len(case.buses)
        raise UnobservableStateError(n - m if m < n else 2 * unobserved)
    return _count_rule(case, scope, k)(count)


def _count_rule(case: NetworkCase, scope: StateScope, k: int,
                gain: bool = False) -> Callable[[int], float]:
    """The count rule: placement_metric's value ``(m - n) / m`` for a
    placement of ``k`` >= 1 PMUs, as a function of its metered branches
    (branch ends), or under ``gain`` of their negated count, to the
    negated value. With halved ``m`` and ``n``, the value is ``(k + c -
    N) / (k + c)`` in full-state scope and ``c / (k + c)`` in pmu-state
    scope, for ``c`` metered: one exact integer division, so the same
    correctly rounded float. Either rises strictly with ``c`` at fixed
    ``k``, so the rule rises strictly with its argument, and its floats
    never decrease as it grows.
    """
    n = len(case.buses) if scope is StateScope.FULL else k
    if gain:
        return lambda key: -((k - key - n) / (k - key))
    return lambda count: (k + count - n) / (k + count)


def metric_function(
    case: NetworkCase,
    scope: StateScope = StateScope.PMU,
    dedupe: str = "by-branch",
    channel_limit: int | None = None,
    gain: bool = False,
):
    """Bind placement_metric into a set function f(frozenset of buses) -> float.

    Planners and the submodularity auditor inject metrics in this shape.
    ``gain=True`` returns the negated average, turning the minimize-sense
    accuracy score into the improvement function that grows as placements
    get richer; audits of diminishing returns run on that orientation.
    f keeps nothing itself. A frozenset, as the audit decodes, becomes its
    PmuPlacement's ``bus_set`` past the constructor, whose limit check runs
    once here (2.2 us a call at 116 ieee118 buses); other inputs go through it.

    Its ``__dict__``, which a ``functools.wraps`` wrapper copies (so one
    that changes f's values must not), holds four entries:

    - ``case``, whose position bits key the two tables below;
    - ``scores``, the table of f's values by placement mask, which
      :func:`~pmuplan.submodularity.audit` shares across audits of ``case``;
    - ``margins``, the audit's table of marginal rows, shared the same way:
      a placement X's mask maps to ``{s: f(X+s) - f(X)}`` over the position
      bits s of the buses outside X, in ascending-id order. A row is stored
      only once ``scores`` holds all its values, and holds |omega| - |X|
      entries, so the rows hold at most |omega| entries per score. Neither
      table is ever emptied; a fresh f starts both empty;
    - the planners' incremental ``scorer``.

    The scorer is None unless every bus of the case can host a PMU: the
    dedupe policy is valid, the channel limit is an int of at least 1 (see
    :class:`~pmuplan.measurements.PmuPlacement`) and no bus has
    more incident branches than the limit. Otherwise the planners call f on
    every candidate, and f raises as it should.

    ``scorer(base)`` returns ``score(added, candidates)``, which ranks the
    placements of ``base`` plus the buses ``added`` (a tuple or list) plus
    each bus of ``candidates`` in turn (all buses of the case, none listed
    twice across the three). It returns ``(keys, value)``: one integer key
    per candidate, the placement's metered branches (branch ends), negated
    under ``gain``, or None where the placement is unobservable in
    full-state scope and f raises; and the count rule ``value(key)``, f's
    float on a placement of that key, bit for bit. All the placements of
    one call have the same size, so ``value`` rises strictly with the key,
    and comparing keys compares f's values (see :func:`_count_rule`). The
    base is ORed once, and ``added`` once per call, by the accumulator
    placement_metric reads. Each candidate then costs one OR of its metered
    mask, read from its :attr:`~pmuplan.network.NetworkCase.incidence` row,
    and one popcount; in full-state scope, also one OR and one compare of
    its closed mask.
    """
    limit = DEFAULT_CHANNEL_LIMIT if channel_limit is None else channel_limit
    scope = _state_scope(scope)
    checked = _is_channel_limit(limit)
    new = object.__new__

    def f(buses) -> float:
        if checked and type(buses) is frozenset:
            # the state PmuPlacement.__post_init__ leaves, without its checks
            placement = new(PmuPlacement)
            state = placement.__dict__
            state["channel_limit"] = limit
            state["bus_set"] = buses
        else:
            placement = PmuPlacement(buses, limit)
        value = placement_metric(case, placement, scope=scope, dedupe=dedupe)
        return -value if gain else value

    f.scores, f.margins, f.case, f.scorer = {}, {}, case, None
    column = METERED_COLUMN.get(dedupe)
    if column is None or not checked or _busiest_over_limit(case, limit) is not None:
        return f
    full = scope is StateScope.FULL
    index = case.incidence
    everyone = (1 << len(index)) - 1

    def scorer(base: Iterable[int]) -> Callable[[Sequence[int], list[int]], tuple]:
        start = _union(case, tuple(base), dedupe, limit, full)

        def score(added: Sequence[int], candidates: list[int]) -> tuple[list, Callable]:
            k, union, observed = _union(case, added, dedupe, limit, full, start)
            if full:
                keys = [(union | index[bus][column]).bit_count()
                        if observed | index[bus][3] == everyone else None for bus in candidates]
            else:
                keys = [(union | index[bus][column]).bit_count() for bus in candidates]
            if gain:
                keys = [None if key is None else -key for key in keys]
            return keys, _count_rule(case, scope, k + 1, gain)

        return score

    f.scorer = scorer
    return f
