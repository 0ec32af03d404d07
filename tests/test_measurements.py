import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmuplan.linalg import ChannelKind, MeasurementChannel, enumerate_channels
from pmuplan.measurements import (
    METERED_COLUMN,
    ChannelLimitError,
    PmuPlacement,
    _union,
    greedy_observable_cover,
    metered_mask,
    observability_check,
)
from pmuplan.network import Branch, Bus, NetworkCase, neighbors


def _mask_count(case, placement, dedupe="by-branch"):
    """m = 2|Q| + 2 * popcount of the placement's metered mask."""
    return 2 * len(placement) + 2 * metered_mask(case, placement, dedupe).bit_count()


@pytest.fixture
def triangle():
    return NetworkCase(
        name="triangle",
        buses=(Bus(1), Bus(2), Bus(3)),
        branches=(
            Branch(1, 2, 0.0, 1.0),
            Branch(2, 3, 0.0, 1.0),
            Branch(1, 3, 0.0, 1.0),
        ),
    )


def test_placement_normalizes_and_validates():
    inputs = [[9, 2, 2, 7], (9, 2, 7), (b for b in (9, 2, 7)), frozenset({9, 2, 7}), {9, 2, 7},
              [9, 7, 2, 9]]
    for buses in inputs:
        p = PmuPlacement.of(buses)
        assert type(p.buses) is tuple and p.buses == (2, 7, 9)
        assert p.bus_set == frozenset({2, 7, 9})
        assert len(p) == 3
    with pytest.raises(ValueError):
        PmuPlacement.of([1], channel_limit=0)


@pytest.mark.parametrize("bad", [0, -1, 2.5, 8.0, float("nan"), float("inf"), True, "8", None])
def test_channel_limit_must_be_a_positive_int(bad):
    """A limit that is no int >= 1 is refused by name and value: nan passed
    the old ``<= 0`` test and then never limited a bus."""
    with pytest.raises(ValueError) as err:
        PmuPlacement.of((2, 6, 7, 9), channel_limit=bad)
    assert str(err.value) == f"channel_limit must be a positive integer, got {bad!r}"


_SHAPES = {
    "list": list,
    "tuple": tuple,
    "set": set,
    "frozenset": frozenset,
    "generator": lambda ids: (bus for bus in ids),
}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 200), max_size=40), st.sampled_from(sorted(_SHAPES)),
       st.integers(1, 20), st.booleans())
def test_placement_keeps_its_set_and_sorts_buses_when_read(ids, shape, limit, read_first):
    """A placement keeps the frozenset of its ids and sorts ``buses`` on the
    first read. Read or not, it equals, hashes and prints as the placement
    of the sorted tuple, and pickling, copying and ``replace`` keep it."""
    ordered = tuple(sorted(set(ids)))
    reference = PmuPlacement(ordered, limit)

    def fresh():
        placement = PmuPlacement(_SHAPES[shape](ids), limit)
        if read_first:
            assert placement.buses == ordered
        return placement

    given_ids = _SHAPES[shape](ids)
    placement = PmuPlacement.of(given_ids, channel_limit=limit)
    kept = placement.bus_set
    assert type(kept) is frozenset and kept == frozenset(ids)
    assert (kept is given_ids) == (shape == "frozenset")
    if shape == "set":
        given_ids.clear()
        given_ids.add(999)
    assert placement.bus_set is kept and len(placement) == len(ordered)
    assert type(placement.buses) is tuple and placement.buses == ordered
    assert placement.buses is placement.buses and placement.bus_set is kept

    assert fresh() == reference and reference == fresh()
    assert fresh() != PmuPlacement(ordered + (201,), limit)
    assert hash(fresh()) == hash(reference)
    assert repr(fresh()) == repr(reference)
    assert len(fresh()) == len(ordered)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(fresh(), protocol))
        assert back == reference and back.bus_set == kept and back.buses == ordered
    for twin in (copy.copy(fresh()), copy.deepcopy(fresh()), dataclasses.replace(fresh())):
        assert twin == reference and twin.bus_set == kept and twin.buses == ordered
    assert dataclasses.replace(fresh(), channel_limit=limit + 1) == PmuPlacement(ordered, limit + 1)
    assert dataclasses.asdict(fresh()) == {"buses": ordered, "channel_limit": limit}
    frozen = fresh()
    for name in ("buses", "channel_limit", "bus_set"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frozen, name, ())
    assert frozen == reference


def test_channel_ordering_is_canonical(triangle):
    ms = enumerate_channels(triangle, PmuPlacement.of([1, 3]))
    kinds = [(c.kind, c.bus, c.branch_index) for c in ms.channels]
    assert kinds == [
        (ChannelKind.VR, 1, None),
        (ChannelKind.VX, 1, None),
        (ChannelKind.VR, 3, None),
        (ChannelKind.VX, 3, None),
        # branch 1-2 metered at 1, then 1-3 at its lower host, then 2-3 at 3
        (ChannelKind.IR, 1, 0),
        (ChannelKind.IX, 1, 0),
        (ChannelKind.IR, 1, 2),
        (ChannelKind.IX, 1, 2),
        (ChannelKind.IR, 3, 1),
        (ChannelKind.IX, 3, 1),
    ]


def test_dedupe_policies(triangle):
    everywhere = PmuPlacement.of([1, 2, 3])
    by_branch = enumerate_channels(triangle, everywhere, dedupe="by-branch")
    per_end = enumerate_channels(triangle, everywhere, dedupe="per-end")
    # 3 branches once vs 6 metered ends
    assert len(by_branch) == 2 * 3 + 2 * 3
    assert len(per_end) == 2 * 3 + 2 * 6
    assert _mask_count(triangle, everywhere) == len(by_branch)
    assert _mask_count(triangle, everywhere, dedupe="per-end") == len(per_end)
    with pytest.raises(ValueError, match="dedupe"):
        enumerate_channels(triangle, everywhere, dedupe="sometimes")


def test_by_branch_meters_at_lower_host(triangle):
    ms = enumerate_channels(triangle, PmuPlacement.of([2, 3]))
    host_of = {c.branch_index: c.bus for c in ms.channels if c.branch_index is not None}
    assert host_of == {0: 2, 1: 2, 2: 3}


def test_channel_counts_on_fixture(ieee14):
    nu = PmuPlacement.of([2, 6, 7, 9])
    assert _mask_count(ieee14, nu) == 36
    degsum = sum(len(ieee14.incident_branches(b)) for b in (2, 6, 7, 9))
    assert _mask_count(ieee14, nu, dedupe="per-end") == 8 + 2 * degsum


def test_channel_limit_enforced(ieee118):
    # the hub bus has more feeders than a stock device has inputs
    with pytest.raises(ChannelLimitError) as err:
        enumerate_channels(ieee118, PmuPlacement.of([49]))
    assert err.value.bus == 49
    assert err.value.incident == 12
    assert "channel limit" in str(err.value)
    wide = PmuPlacement.of([49], channel_limit=12)
    assert _mask_count(ieee118, wide) == 2 + 2 * 12


def test_channel_validation():
    with pytest.raises(ValueError, match="no branch reference"):
        MeasurementChannel(ChannelKind.VR, 1, branch_index=0)
    with pytest.raises(ValueError, match="need a branch"):
        MeasurementChannel(ChannelKind.IR, 1)


def test_placement_bus_must_exist(triangle):
    with pytest.raises(KeyError, match="placement bus 9"):
        enumerate_channels(triangle, PmuPlacement.of([9]))


def test_observability_check(ieee14):
    ok, unobserved = observability_check(ieee14, PmuPlacement.of([2, 6, 7, 9]))
    assert ok and unobserved == []
    ok, unobserved = observability_check(ieee14, PmuPlacement.of([2]))
    assert not ok
    assert unobserved == [6, 7, 8, 9, 10, 11, 12, 13, 14]


def test_greedy_cover_14(ieee14):
    cover = greedy_observable_cover(ieee14)
    assert cover.buses == (1, 4, 6, 7, 9)
    ok, _ = observability_check(ieee14, cover)
    assert ok


def test_greedy_cover_respects_channel_limit(ieee118):
    cover = greedy_observable_cover(ieee118)
    assert 49 not in cover.bus_set
    ok, _ = observability_check(ieee118, cover)
    assert ok
    # the stock-device cover of this fixture lands on 37 hosts
    assert len(cover) == 37
    wide = greedy_observable_cover(ieee118, channel_limit=16)
    ok, _ = observability_check(ieee118, wide)
    assert ok
    assert len(wide) <= len(cover)


def test_cover_failure_when_nothing_can_host():
    # parallel pair pushes buses 1 and 2 over the limit, so no feasible host
    # in their neighborhood remains and the cover must report them stranded
    case = NetworkCase(
        name="stranded",
        buses=(Bus(1), Bus(2), Bus(3), Bus(4)),
        branches=(
            Branch(1, 2, 0.0, 1.0),
            Branch(1, 2, 0.0, 2.0),
            Branch(3, 4, 0.0, 1.0),
        ),
    )
    with pytest.raises(ValueError, match="cannot be observed"):
        greedy_observable_cover(case, channel_limit=1)


def test_cover_failure_when_no_bus_can_host():
    # every bus of the triangle has two branches, over the limit of one
    case = NetworkCase(
        name="triangle",
        buses=(Bus(1), Bus(2), Bus(3)),
        branches=(Branch(1, 2, 0.0, 1.0), Branch(2, 3, 0.0, 1.0), Branch(1, 3, 0.0, 1.0)),
    )
    with pytest.raises(ValueError) as failure:
        greedy_observable_cover(case, channel_limit=1)
    assert str(failure.value) == (
        "buses [1, 2, 3] cannot be observed by any host within the channel limit of 1")


# ---- mask kernel against the explicit references -------------------------------
# metered_mask and observability_check read the case's per-bus bitmasks; the
# references below walk incident_branches and the channel list instead.


@st.composite
def drawn_cases(draw):
    """A connected case with scattered, unsorted bus ids and parallel branches."""
    ids = draw(st.lists(st.integers(1, 500), min_size=2, max_size=9, unique=True))
    pairs = [(ids[i], draw(st.sampled_from(ids[:i]))) for i in range(1, len(ids))]
    pairs += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                           .filter(lambda ft: ft[0] != ft[1]), max_size=6))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))  # parallel branches
    pairs = draw(st.permutations(pairs))
    return NetworkCase(
        name="drawn",
        buses=tuple(Bus(i) for i in ids),
        branches=tuple(Branch(f, t, 0.0, 1.0 + k) for k, (f, t) in enumerate(pairs)),
    )


@st.composite
def cases_and_placements(draw):
    """A drawn case plus a placement that may hold unknown or over-limit buses."""
    case = draw(drawn_cases())
    ids = case.bus_ids
    unknown = st.integers(501, 600)
    buses = draw(st.lists(st.one_of(st.sampled_from(ids), unknown), min_size=1, max_size=9))
    return case, PmuPlacement.of(buses, channel_limit=draw(st.integers(1, 6)))


def _scanned_degree(case, bus):
    return sum(bus in (br.from_bus, br.to_bus) for br in case.branches)


@settings(max_examples=300, deadline=None)
@given(cases_and_placements(), st.sampled_from(["by-branch", "per-end"]))
def test_mask_kernel_matches_the_references(drawn, dedupe):
    case, placement = drawn
    first_unknown = next((b for b in placement.buses if b not in case.bus_ids), None)
    first_bad = next(
        (b for b in placement.buses
         if b not in case.bus_ids or _scanned_degree(case, b) > placement.channel_limit),
        None,
    )

    if first_bad is None:
        assert _mask_count(case, placement, dedupe) == len(
            enumerate_channels(case, placement, dedupe)
        )
    else:
        with pytest.raises((KeyError, ChannelLimitError)) as got:
            _mask_count(case, placement, dedupe)
        with pytest.raises((KeyError, ChannelLimitError)) as want:
            enumerate_channels(case, placement, dedupe)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        if first_bad == first_unknown:
            assert str(got.value) == repr(f"placement bus {first_bad} not in case 'drawn'")
        else:
            assert got.value.bus == first_bad
            assert got.value.incident == _scanned_degree(case, first_bad)

    if first_unknown is not None:
        with pytest.raises(KeyError) as got:
            observability_check(case, placement)
        # the accumulator's message, which metered_mask gives once no bus is over the limit
        unlimited = PmuPlacement.of(placement.buses, channel_limit=len(case.branches))
        with pytest.raises(KeyError) as want:
            metered_mask(case, unlimited, dedupe)
        assert str(got.value) == str(want.value)
        assert str(got.value) == repr(f"placement bus {first_unknown} not in case 'drawn'")
        return
    observed = set(placement.buses)
    for bus in placement.buses:
        for i in case.incident_branches(bus):
            br = case.branches[i]
            observed.add(br.to_bus if br.from_bus == bus else br.from_bus)
    unobserved = sorted(set(case.bus_ids) - observed)
    assert observability_check(case, placement) == (not unobserved, unobserved)


def _per_bus_counts(case, buses, dedupe, limit, closed, start):
    """The accumulator's ``(k, metered, observed)`` from the branch list, bus
    by bus, raising for the first unknown or over-limit bus by id."""
    for bad in sorted(buses):
        if bad not in case.bus_ids:
            raise KeyError(f"placement bus {bad} not in case {case.name!r}")
        if _scanned_degree(case, bad) > limit:
            raise ChannelLimitError(bad, _scanned_degree(case, bad), limit)
    k, metered, observed = start
    held = set(buses)
    seen = set(held)
    for i, br in enumerate(case.branches):
        if dedupe == "by-branch":
            metered |= (br.from_bus in held or br.to_bus in held) << i
        else:
            metered |= (br.from_bus in held) << 2 * i | (br.to_bus in held) << 2 * i + 1
        if br.from_bus in held or br.to_bus in held:
            seen |= {br.from_bus, br.to_bus}
    if closed:
        for bus in seen:
            observed |= 1 << case.bus_index(bus)
    return k + len(buses), metered, observed


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_outside_count_matches_the_per_bus_loop(ieee14, ieee118, data):
    # the accumulator counts a placement of all buses but at most N/8 from
    # the buses outside it; every size, either side of that rule, must give
    # the per-bus loop's masks and errors
    case = data.draw(st.one_of(drawn_cases(), st.sampled_from([ieee14, ieee118])), label="case")
    ids = list(case.bus_ids)
    left_out = data.draw(st.one_of(st.integers(0, 3), st.integers(0, len(ids))), label="left out")
    buses = data.draw(st.permutations(ids), label="order")[left_out:]
    if data.draw(st.booleans(), label="leave a bus unobserved"):
        hole = data.draw(st.sampled_from(ids), label="unobserved")
        hole = neighbors(case, hole) | {hole}
        buses = [bus for bus in buses if bus not in hole]
    buses += data.draw(st.lists(st.one_of(st.sampled_from(ids), st.integers(501, 600)),
                                max_size=2), label="repeated or unknown")
    buses = data.draw(st.sampled_from([tuple, list]), label="container")(buses)
    degree = max(row[1] for row in case.incidence.values())
    limit = data.draw(st.integers(max(1, degree - 2), degree + 2), label="limit")
    dedupe = data.draw(st.sampled_from(sorted(METERED_COLUMN)), label="dedupe")
    closed = data.draw(st.booleans(), label="closed")
    start = data.draw(st.one_of(st.just((0, 0, 0)), st.tuples(
        st.integers(0, 3), st.integers(0, 255), st.integers(0, 255))), label="start")

    try:
        want = _per_bus_counts(case, buses, dedupe, limit, closed, start)
    except (KeyError, ChannelLimitError) as err:
        with pytest.raises(type(err)) as got:
            _union(case, buses, dedupe, limit, closed, start)
        assert type(got.value) is type(err)
        assert str(got.value) == str(err)
    else:
        assert _union(case, buses, dedupe, limit, closed, start) == want


def test_outside_count_finds_each_unobserved_bus(ieee14, ieee118):
    # a placement of every bus but one closed neighborhood leaves the center
    # unobserved; on ieee118 most such placements are counted from outside
    for case in (ieee14, ieee118):
        for center in case.bus_ids:
            hole = neighbors(case, center) | {center}
            buses = tuple(bus for bus in case.bus_ids if bus not in hole)
            for dedupe in sorted(METERED_COLUMN):
                want = _per_bus_counts(case, buses, dedupe, 99, True, (0, 0, 0))
                assert _union(case, buses, dedupe, 99, True) == want
            _, unobserved = observability_check(case, PmuPlacement.of(buses))
            assert center in unobserved
