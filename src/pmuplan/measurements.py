"""Measurement model: what a PMU placement meters and observes, by counting.

A bus-type PMU meters its bus voltage phasor and the current phasor on every
incident branch. In rectangular coordinates each phasor contributes two real
channels, so a placement Q induces ``m = 2|Q| + 2 * (metered branch ends)``
channels. When both endpoints of a branch host PMUs the two current phasors
are redundant; the default ``by-branch`` policy keeps a single pair, metered
at the lower-numbered endpoint, while ``per-end`` keeps both.

Every rule here reads :attr:`~pmuplan.network.NetworkCase.incidence`. A
dedupe policy meters one of its mask columns, :data:`METERED_COLUMN`. One
accumulator, ``_union``, ORs the rows of a set of buses and validates them:
the placement score, the planners' scorer, :func:`metered_mask` and the
explicit, ordered channel list (:func:`pmuplan.linalg.enumerate_channels`,
which only the linear-algebra pipeline needs) all read it, so each counts
``m = 2|Q| + 2 * popcount`` and raises the same error for the same bus;
:func:`observability_check` reads it for the observed mask.

The accumulator takes a placement's ids or a mask of the case's position
bits. Ids are ORed bus by bus. A mask is read from its short side: bus by
bus when at most half its bits are set, else from the buses outside it, at
about one OR per outside bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from .network import NetworkCase, _ids_in

__all__ = [
    "ChannelLimitError",
    "PmuPlacement",
    "metered_mask",
    "observability_check",
    "greedy_observable_cover",
]

DEFAULT_CHANNEL_LIMIT = 8

# the incidence column a PMU meters under each dedupe policy:
# branch_mask (one bit per branch) or end_mask (one bit per branch end)
METERED_COLUMN = {"by-branch": 2, "per-end": 4}
_BY_BRANCH = METERED_COLUMN["by-branch"]


def _union(case: NetworkCase, buses: Collection[int] | int, dedupe: str, limit: int,
           closed: bool = False, start: tuple[int, int, int] = (0, 0, 0)) -> tuple[int, int, int]:
    """OR the incidence rows of ``buses`` onto ``start``: a frozenset, tuple
    or list of ids, or an int mask of the case's position bits.

    Returns ``(k, metered, observed)``: start's k plus the number of buses,
    start's metered mask ORed with their ``METERED_COLUMN[dedupe]`` masks,
    and start's observed mask, ORed with their closed masks only when
    ``closed``. The exact counts are popcounts: the metered branches (branch
    ends) and, of the case's N buses, N minus the observed ones.

    Ids are ORed bus by bus. A mask with more bits set than clear is
    counted from the buses outside it, by :func:`_outside_union`, when
    ``start`` is zero and no bus of the case has more incident branches
    than ``limit``; both sides return the same masks.

    Raises ValueError for an unknown dedupe policy or a mask that is
    negative or has a bit at or past position N, and KeyError or
    ChannelLimitError for a bus not in the case or over ``limit``, naming
    the first such bus by id.
    """
    column = METERED_COLUMN.get(dedupe)
    if column is None:
        raise ValueError(f"unknown dedupe policy {dedupe!r}")
    if type(buses) is int:
        return _mask_union(case, buses, column, limit, closed, start)
    index = case.incidence
    k, metered, observed = start
    for bus in buses:
        row = index.get(bus)
        if row is None or row[1] > limit:
            for bad in sorted(buses):
                row = index.get(bad)
                if row is None:
                    raise KeyError(f"placement bus {bad} not in case {case.name!r}")
                if row[1] > limit:
                    raise ChannelLimitError(bad, row[1], limit)
        metered |= row[column]
    if closed:
        for bus in buses:
            observed |= index[bus][3]
    return k + len(buses), metered, observed


def _mask_union(case: NetworkCase, mask: int, column: int, limit: int, closed: bool,
                start: tuple[int, int, int]) -> tuple[int, int, int]:
    """:func:`_union` of the buses whose position bits are set in ``mask``,
    read from the case's rows by position, from the side with fewer bits."""
    rows = case._rows
    if mask < 0 or mask >> len(rows):
        raise ValueError(f"placement mask {mask} has bits outside the {len(rows)} "
                         f"bus positions of case {case.name!r}")
    k = mask.bit_count()
    if 2 * k > len(rows) and start == (0, 0, 0) and limit >= case._max_degree:
        return _outside_union(case, ((1 << len(rows)) - 1) ^ mask, column, closed)
    count, metered, observed = start
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        row = rows[bit.bit_length() - 1]
        if row[1] > limit:
            index = case.incidence
            bad = next(bus for bus in case.buses_in(mask) if index[bus][1] > limit)
            raise ChannelLimitError(bad, index[bad][1], limit)
        metered |= row[column]
        if closed:
            observed |= row[3]
    return count + k, metered, observed


def _outside_union(case: NetworkCase, outside: int, column: int,
                   closed: bool) -> tuple[int, int, int]:
    """:func:`_union`'s counts for the placement of every bus but those
    whose position bits are set in ``outside``.

    By branch, a branch is metered unless both its ends lie outside: those
    are set in the OR of the outside rows' branch masks and clear in their
    XOR. Per end, the metered ends are all ends but the outside rows'. A
    bus is observed unless it lies outside and its closed mask misses the
    placement.
    """
    rows = case._rows
    observed = placed = ((1 << len(rows)) - 1) ^ outside if closed else 0
    touched = once = 0
    rest = outside
    while rest:
        bit = rest & -rest
        rest ^= bit
        row = rows[bit.bit_length() - 1]
        mask = row[column]
        touched |= mask
        once ^= mask
        if closed and row[3] & placed:
            observed |= bit
    if column == _BY_BRANCH:
        metered = ((1 << len(case.branches)) - 1) ^ (touched & ~once)
    else:
        metered = ((1 << 2 * len(case.branches)) - 1) ^ touched
    return len(rows) - outside.bit_count(), metered, observed


class ChannelLimitError(ValueError):
    """A PMU bus has more incident branches than its channel limit allows."""

    def __init__(self, bus: int, incident: int, limit: int):
        self.bus = bus
        self.incident = incident
        self.limit = limit
        super().__init__(
            f"bus {bus} has {incident} incident branches, exceeding the "
            f"channel limit of {limit}"
        )


def _is_channel_limit(limit) -> bool:
    """Whether ``limit`` is a channel limit: an int of at least 1, not a bool."""
    return isinstance(limit, int) and not isinstance(limit, bool) and limit >= 1


class _SortedBuses:
    """``PmuPlacement.buses``, sorted on first read into the instance's
    ``__dict__``, which then shadows this non-data descriptor. On the class
    it raises AttributeError, so the dataclass field has no default."""

    def __get__(self, placement, owner=None):
        if placement is None:
            raise AttributeError("buses")
        buses = placement.__dict__["buses"] = tuple(sorted(placement.bus_set))
        return buses


class _DecodedIds:
    """``PmuPlacement.bus_set`` of a placement held as a mask, decoded on
    first read by :func:`~pmuplan.network._ids_in` into the instance's
    ``__dict__``; a placement built from ids has it there from the start."""

    def __get__(self, placement, owner=None):
        if placement is None:
            raise AttributeError("bus_set")
        state = placement.__dict__
        bus_set = state["bus_set"] = frozenset(_ids_in(state["_ids"], state["_mask"]))
        return bus_set


@dataclass(frozen=True)
class PmuPlacement:
    """A set of PMU-hosting buses plus the per-PMU branch-input budget.

    ``bus_set`` keeps the distinct ids given, a frozenset as it is and any
    other iterable copied once into one. ``buses``, their sorted tuple, is
    sorted on its first read and kept; the counts read ``bus_set``.
    ``channel_limit`` must be an int of at least 1; a bool, a float or nan
    raises ValueError naming it and the value.

    :func:`~pmuplan.estimation.metric_function`'s set function also makes
    a private form, past the constructor, that holds a mask of a case's
    position bits and that case's ids by position, not the case, which
    :func:`~pmuplan.estimation.placement_metric` counts from the mask for
    that case. Its ``bus_set`` is decoded on first read, so it compares,
    hashes, prints, pickles and copies as the placement of the same ids
    does.
    """

    buses: tuple[int, ...] = _SortedBuses()
    channel_limit: int = DEFAULT_CHANNEL_LIMIT
    bus_set = _DecodedIds()

    def __post_init__(self) -> None:
        if not _is_channel_limit(self.channel_limit):
            raise ValueError(f"channel_limit must be a positive integer, got {self.channel_limit!r}")
        state = self.__dict__
        buses = state.pop("buses")
        state["bus_set"] = buses if type(buses) is frozenset else frozenset(buses)

    @classmethod
    def of(cls, buses: Iterable[int], channel_limit: int = DEFAULT_CHANNEL_LIMIT) -> "PmuPlacement":
        return cls(buses=buses, channel_limit=channel_limit)

    def __len__(self) -> int:
        return len(self.bus_set)


def _busiest_over_limit(case: NetworkCase, channel_limit: int) -> int | None:
    """The first bus of the most incident branches, if they are more than
    ``channel_limit``; None when every bus of the case can host a PMU."""
    most = case._max_degree
    if most <= channel_limit:
        return None
    return next(bus for bus, row in case.incidence.items() if row[1] == most)


def metered_mask(case: NetworkCase, placement: PmuPlacement, dedupe: str = "by-branch") -> int:
    """The OR over the placement's buses of what each PMU meters, the
    :data:`METERED_COLUMN` of their
    :attr:`~pmuplan.network.NetworkCase.incidence` rows that ``dedupe``
    selects: one bit per metered branch (``by-branch``) or branch end
    (``per-end``). The channel count is ``m = 2|Q| + 2 * popcount``, the
    length of :func:`~pmuplan.linalg.enumerate_channels`' list, which
    raises the same error for the same first offending bus.
    """
    return _union(case, placement.bus_set, dedupe, placement.channel_limit)[1]


def observability_check(case: NetworkCase, placement: PmuPlacement) -> tuple[bool, list[int]]:
    """Topological observability: every bus hosts a PMU or neighbors one.

    Returns ``(fully_observable, sorted unobserved bus ids)``. Placement buses
    must belong to the case: the accumulator raises ``KeyError`` naming the
    smallest unknown one, as :func:`metered_mask` does. The channel limit is
    not checked. The observed set is the OR of the buses' closed-neighborhood
    masks; ids are decoded only when some bus is left out of it.
    """
    # no bus has more incident branches than the case has branches
    observed = _union(case, placement.bus_set, "by-branch", len(case.branches), closed=True)[2]
    unobserved = ~observed & ((1 << len(case.buses)) - 1)
    if not unobserved:
        return True, []
    return False, case.buses_in(unobserved)


def greedy_observable_cover(
    case: NetworkCase,
    channel_limit: int = DEFAULT_CHANNEL_LIMIT,
) -> PmuPlacement:
    """Build an observable placement by greedy coverage.

    Repeatedly adds the bus whose closed neighborhood covers the most still
    uncovered buses, lowest id on ties, until every bus is covered. Buses
    with more incident branches than the channel limit cannot host a device
    and are never selected. The result passes :func:`observability_check`
    but is not guaranteed to be of minimum cardinality.
    """
    closed = {bus: row[3] for bus, row in case.incidence.items() if row[1] <= channel_limit}
    hosts = sorted(closed)

    uncovered = (1 << len(case.buses)) - 1
    chosen: list[int] = []
    while uncovered:
        # max() keeps the first maximum, so over sorted ids the lowest wins ties
        best = max(hosts, key=lambda b: (closed[b] & uncovered).bit_count(), default=None)
        if best is None or not closed[best] & uncovered:
            raise ValueError(
                f"buses {case.buses_in(uncovered)} cannot be observed by any host "
                f"within the channel limit of {channel_limit}"
            )
        chosen.append(best)
        uncovered &= ~closed[best]
    return PmuPlacement.of(chosen, channel_limit=channel_limit)
