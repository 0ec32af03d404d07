import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmuplan.linalg import ChannelKind, MeasurementChannel, enumerate_channels
from pmuplan.measurements import (
    ChannelLimitError,
    PmuPlacement,
    greedy_observable_cover,
    metered_mask,
    observability_check,
)
from pmuplan.network import Branch, Bus, NetworkCase


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
    p = PmuPlacement.of([9, 2, 2, 7])
    assert p.buses == (2, 7, 9)
    assert p.bus_set == frozenset({2, 7, 9})
    assert len(p) == 3
    with pytest.raises(ValueError):
        PmuPlacement.of([1], channel_limit=0)


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
def cases_and_placements(draw):
    """A connected case with scattered, unsorted bus ids and parallel branches,
    plus a placement that may hold unknown or over-limit buses."""
    ids = draw(st.lists(st.integers(1, 500), min_size=2, max_size=9, unique=True))
    pairs = [(ids[i], draw(st.sampled_from(ids[:i]))) for i in range(1, len(ids))]
    pairs += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                           .filter(lambda ft: ft[0] != ft[1]), max_size=6))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))  # parallel branches
    pairs = draw(st.permutations(pairs))
    case = NetworkCase(
        name="drawn",
        buses=tuple(Bus(i) for i in ids),
        branches=tuple(Branch(f, t, 0.0, 1.0 + k) for k, (f, t) in enumerate(pairs)),
    )
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
        assert str(got.value) == repr(f"unknown bus id {first_unknown}")
        return
    observed = set(placement.buses)
    for bus in placement.buses:
        for i in case.incident_branches(bus):
            br = case.branches[i]
            observed.add(br.to_bus if br.from_bus == bus else br.from_bus)
    unobserved = sorted(set(case.bus_ids) - observed)
    assert observability_check(case, placement) == (not unobserved, unobserved)
