import cmath
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmuplan.linalg import (
    ChannelKind,
    MeasurementChannel,
    enumerate_channels,
    incidence_matrix,
    metered_admittances,
)
from pmuplan.measurements import PmuPlacement
from pmuplan.network import (
    Branch,
    Bus,
    CaseFormatError,
    NetworkCase,
    neighbors,
    parse_case,
    serialize_case,
)

MINI_CASE = """\
function mpc = mini
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1  3  0  0  0   0  1  1.06  0  230  1  1.1  0.9;
    2  1  0  0  0  19  1  1.00  0  230  1  1.1  0.9;  % shunt on bus 2
    3  1  0  0  5   0  1  1.00  0  230  1  1.1  0.9;
];
mpc.branch = [
    1  2  0.01  0.05  0.02  9900  0  0  0      0  1  -360  360;
    2  3  0.02  0.10  0.00  9900  0  0  0.98  30  1  -360  360;
    1  3  0.03  0.15  0.00  9900  0  0  0      0  0  -360  360;  % out of service
];
"""


def test_matpower_subset_parsing():
    case = parse_case(MINI_CASE, name="mini")
    assert case.bus_ids == (1, 2, 3)
    # shunts are rescaled onto the MVA base
    assert case.buses[1].shunt_b == pytest.approx(0.19)
    assert case.buses[2].shunt_g == pytest.approx(0.05)
    # status-0 branch dropped, tap 0 means nominal, shift arrives in radians
    assert len(case.branches) == 2
    assert case.branches[0].tap == 1.0
    assert case.branches[1].tap == pytest.approx(0.98)
    assert case.branches[1].shift == float(np.deg2rad(30.0))


@pytest.mark.parametrize(
    "angle", [0.0, 30.0, -30.0, 0.5, -7.125, 1e-7, 12.3456789, -179.99, 359.0, 720.25]
)
def test_matpower_phase_shift_is_exact_radians(angle):
    text = MINI_CASE.replace("0.98  30  1", f"0.98  {angle!r}  1")
    shift = parse_case(text, name="mini").branches[1].shift
    assert type(shift) is float
    assert shift == float(np.deg2rad(angle))


def test_matpower_errors_carry_line_positions():
    with pytest.raises(CaseFormatError, match="missing 'mpc.bus'"):
        parse_case("mpc.baseMVA = 100;", name="broken")
    bad = MINI_CASE.replace("2  3  0.02", "2  oops  0.02")
    with pytest.raises(CaseFormatError, match=r"mini:\d+: bad numeric row"):
        parse_case(bad, name="mini")


def test_duplicate_and_dangling_validation():
    with pytest.raises(CaseFormatError, match="duplicate bus"):
        NetworkCase(name="d", buses=(Bus(1), Bus(1)), branches=())
    with pytest.raises(CaseFormatError, match="unknown bus 9"):
        NetworkCase(
            name="d",
            buses=(Bus(1), Bus(2)),
            branches=(Branch(1, 9, 0.0, 1.0),),
        )


def test_branch_invariants():
    with pytest.raises(ValueError, match="coincide"):
        Branch(4, 4, 0.0, 1.0)
    with pytest.raises(ValueError, match="zero series impedance"):
        Branch(1, 2, 0.0, 0.0)
    with pytest.raises(ValueError, match="tap"):
        Branch(1, 2, 0.0, 1.0, tap=-1.0)


def test_json_round_trip():
    case = parse_case(MINI_CASE, name="mini")
    doc = serialize_case(case)
    assert doc["schema"] == "network-case/1"
    again = parse_case(json.dumps(doc), format="json", name="ignored")
    assert again == case


def test_json_errors():
    with pytest.raises(CaseFormatError, match="invalid JSON at line"):
        parse_case("{not json", format="json", name="x")
    with pytest.raises(CaseFormatError, match="needs 'buses' and 'branches'"):
        parse_case('{"buses": []}', format="json", name="x")
    with pytest.raises(CaseFormatError, match="unknown case format"):
        parse_case("", format="yaml", name="x")


def test_incidence_matrix_orientation():
    case = parse_case(MINI_CASE, name="mini")
    mat = incidence_matrix(case)
    assert mat.tolist() == [[1, -1, 0], [0, 1, -1]]
    # every branch row sums to zero
    assert not mat.sum(axis=1).any()


def test_line_admittances_match_series_formula():
    br = Branch(1, 2, 0.01, 0.05, b_charging=0.02)
    y_s = 1.0 / complex(0.01, 0.05)
    y_ff, y_ft = metered_admittances(br, br.from_bus)
    assert y_ff == pytest.approx(y_s + 0.01j)
    assert y_ft == pytest.approx(-y_s)
    # a plain line is symmetric: the to-end sees the same pair
    y_tt, y_tf = metered_admittances(br, 2)
    assert y_tt == pytest.approx(y_ff)
    assert y_tf == pytest.approx(y_ft)


def test_transformer_admittances_are_asymmetric():
    br = Branch(1, 2, 0.0, 0.2, tap=0.95, shift=np.deg2rad(10.0))
    y_s = 1.0 / 0.2j
    t = 0.95 * cmath.exp(1j * br.shift)
    y_ff, y_ft = metered_admittances(br, 1)
    y_tt, y_tf = metered_admittances(br, 2)
    assert y_ff == pytest.approx(y_s / (0.95**2))
    assert y_ft == pytest.approx(-y_s / t.conjugate())
    # tap lives wholly on the from side
    assert y_tt == pytest.approx(y_s)
    assert y_tf == pytest.approx(-y_s / t)
    with pytest.raises(ValueError, match="not an endpoint"):
        metered_admittances(br, 7)


def test_flat_model_strips_shunts_taps_and_shifts():
    br = Branch(1, 2, 0.0, 0.5, b_charging=0.3, tap=0.9, shift=0.2)
    y_s = 1.0 / 0.5j
    assert metered_admittances(br, 1, flat=True) == (y_s, -y_s)
    assert metered_admittances(br, 2, flat=True) == (y_s, -y_s)


def _from_end_formula(branch, flat):
    y_s = 1.0 / complex(branch.r, branch.x)
    if flat:
        return y_s, -y_s
    tap = branch.tap * cmath.exp(1j * branch.shift)
    y_ff = (y_s + 1j * branch.b_charging / 2.0) / (tap * tap.conjugate())
    y_ft = -y_s / tap.conjugate()
    return y_ff, y_ft


def _to_end_formula(branch, flat):
    y_s = 1.0 / complex(branch.r, branch.x)
    if flat:
        return y_s, -y_s
    tap = branch.tap * cmath.exp(1j * branch.shift)
    y_tt = y_s + 1j * branch.b_charging / 2.0
    y_tf = -y_s / tap
    return y_tt, y_tf


@pytest.mark.parametrize("flat", [False, True])
def test_metered_admittances_equal_the_end_formulas_bit_for_bit(ieee14, ieee118, flat):
    for case in (ieee14, ieee118):
        for br in case.branches:
            assert metered_admittances(br, br.from_bus, flat) == _from_end_formula(br, flat)
            assert metered_admittances(br, br.to_bus, flat) == _to_end_formula(br, flat)


def test_topology_helpers():
    case = parse_case(MINI_CASE, name="mini")
    assert neighbors(case, 2) == {1, 3}
    assert case.incident_branches(2) == (0, 1)
    assert case.is_connected()
    island = NetworkCase(name="i", buses=(Bus(1), Bus(2)), branches=())
    assert not island.is_connected()
    with pytest.raises(KeyError):
        case.bus_index(99)
    with pytest.raises(KeyError):
        neighbors(case, 99)


def test_bundled_fixture_shapes(ieee14, ieee118):
    assert len(ieee14.buses) == 14
    assert len(ieee14.branches) == 20
    assert ieee14.is_connected()
    assert len(ieee118.buses) == 118
    assert len(ieee118.branches) == 186
    assert ieee118.is_connected()


def test_bundled_fixture_details(ieee14, ieee118):
    # three transformers off nominal tap on the 14-bus case
    taps14 = [br for br in ieee14.branches if br.tap != 1.0]
    assert len(taps14) == 3
    # the 118-bus case keeps its heavy hub and parallel circuits
    assert len(ieee118.incident_branches(49)) == 12
    pairs = {}
    for br in ieee118.branches:
        key = tuple(sorted((br.from_bus, br.to_bus)))
        pairs[key] = pairs.get(key, 0) + 1
    assert sum(1 for n in pairs.values() if n == 2) == 7


@pytest.mark.parametrize(
    "old, new, what",
    [
        ("1  2  0.01  0.05", "1  2  NaN  0.05", "r=nan"),
        ("1  2  0.01  0.05", "1  2  0.01  Inf", "x=inf"),
        ("0.05  0.02  9900", "0.05  nan  9900", "b=nan"),
        ("0  0.98  30", "0  nan  30", "tap=nan"),
        ("0.98  30  1", "0.98  -Inf  1", "shift=-inf"),
        ("0  19  1  1.00", "0  NaN  1  1.00", "shunt_b=nan"),
        ("0  0  5   0", "0  0  Inf   0", "shunt_g=inf"),
        ("    3  1  0  0  5", "    2.7  1  0  0  5", "bus id must be an integer, got 2.7"),
        ("    2  3  0.02", "    2  3.5  0.02", "to bus must be an integer, got 3.5"),
    ],
)
def test_matpower_rejects_non_finite_and_fractional_values(old, new, what):
    assert old in MINI_CASE
    bad = MINI_CASE.replace(old, new, 1)
    lineno = 1 + next(i for i, line in enumerate(bad.splitlines()) if new in line)
    with pytest.raises(CaseFormatError, match=rf"^mini:{lineno}: .*{re.escape(what)}"):
        parse_case(bad, name="mini")


def test_matpower_rejects_a_bad_base():
    for base in ("0", "-100", "nan", "abc"):
        bad = MINI_CASE.replace("mpc.baseMVA = 100;", f"mpc.baseMVA = {base};")
        with pytest.raises(CaseFormatError, match=r"^mini:3: baseMVA"):
            parse_case(bad, name="mini")


@pytest.mark.parametrize(
    "path, value, what",
    [
        (("buses", 1, "id"), 2.7, "bus entry 1: bus id must be an integer, got 2.7"),
        (("buses", 0, "id"), "1.5", "bus entry 0: bus id must be an integer"),
        (("buses", 2, "shunt_b"), float("nan"), "bus entry 2: .*shunt_b=nan"),
        (("branches", 1, "from"), 2.5, "branch entry 1: branch from bus must be an integer"),
        (("branches", 0, "r"), float("nan"), "branch entry 0: .*r=nan"),
        (("branches", 0, "x"), float("inf"), "branch entry 0: .*x=inf"),
        (("branches", 1, "tap"), float("nan"), "branch entry 1: .*tap=nan"),
        (("branches", 1, "shift"), float("-inf"), "branch entry 1: .*shift=-inf"),
        (("branches", 0, "b"), float("inf"), "branch entry 0: .*b=inf"),
    ],
)
def test_json_rejects_non_finite_and_fractional_values(path, value, what):
    doc = serialize_case(parse_case(MINI_CASE, name="mini"))
    table, index, key = path
    doc[table][index][key] = value
    # json.dumps writes NaN and Infinity, which json.loads accepts
    with pytest.raises(CaseFormatError, match=rf"^x: malformed {what}"):
        parse_case(json.dumps(doc), format="json", name="x")


@pytest.mark.parametrize(
    "path, value, what",
    [
        (("buses", 0, "id"), True, "bus entry 0: bus id must be an integer, got True"),
        (("buses", 1, "id"), "2", "bus entry 1: bus id must be an integer, got '2'"),
        (("buses", 2, "shunt_g"), "0.1", "bus entry 2: shunt_g must be a number, got '0.1'"),
        (("buses", 0, "shunt_b"), False, "bus entry 0: shunt_b must be a number, got False"),
        (("branches", 0, "from"), False, "branch entry 0: branch from bus must be an integer"),
        (("branches", 1, "to"), "2", "branch entry 1: branch to bus must be an integer, got '2'"),
        (("branches", 0, "r"), "0.5", "branch entry 0: r must be a number, got '0.5'"),
        (("branches", 1, "x"), True, "branch entry 1: x must be a number, got True"),
        (("branches", 0, "b"), "0", "branch entry 0: b must be a number, got '0'"),
        (("branches", 1, "tap"), True, "branch entry 1: tap must be a number, got True"),
        (("branches", 1, "shift"), "0", "branch entry 1: shift must be a number, got '0'"),
        (("branches", 0, "x"), None, "branch entry 0: x must be a number, got None"),
    ],
)
def test_json_rejects_strings_and_booleans(path, value, what):
    doc = serialize_case(parse_case(MINI_CASE, name="mini"))
    table, index, key = path
    doc[table][index][key] = value
    with pytest.raises(CaseFormatError, match=rf"^x: malformed {re.escape(what)}"):
        parse_case(json.dumps(doc), format="json", name="x")


def test_json_document_errors_name_the_document():
    huge = '{"buses": [{"id": ' + "7" * 5000 + '}], "branches": []}'
    with pytest.raises(CaseFormatError, match=r"^x: invalid JSON: .*4300 digits"):
        parse_case(huge, format="json", name="x")
    with pytest.raises(CaseFormatError, match=r"^x: invalid JSON: maximum recursion depth"):
        parse_case("[" * 100_000, format="json", name="x")


@pytest.mark.parametrize("name", [[1, True], 7, None, True, {"x": "y"}])
def test_json_case_name_must_be_a_string(name):
    doc = serialize_case(parse_case(MINI_CASE, name="mini"))
    doc["name"] = name
    with pytest.raises(CaseFormatError,
                       match=rf"^x: case name must be a JSON string, got {re.escape(json.dumps(name))}$"):
        parse_case(json.dumps(doc), format="json", name="x")
    del doc["name"]
    assert parse_case(json.dumps(doc), format="json", name="x").name == "x"


def test_json_integral_ids_are_kept_exactly():
    doc = serialize_case(parse_case(MINI_CASE, name="mini"))
    doc["buses"][2]["id"] = 3.0
    doc["buses"].append({"id": 2**60})
    case = parse_case(json.dumps(doc), format="json", name="x")
    assert case.bus_ids == (1, 2, 3, 2**60)
    with pytest.raises(CaseFormatError, match="needs 'buses' and 'branches' arrays"):
        parse_case('{"buses": 3, "branches": []}', format="json", name="x")


def test_incidence_lookups_match_scans(ieee118):
    case = ieee118
    for pos, bus in enumerate(case.bus_ids):
        assert case.bus_index(bus) == pos
        scanned = tuple(
            i for i, br in enumerate(case.branches) if bus in (br.from_bus, br.to_bus)
        )
        assert case.incident_branches(bus) == scanned
        assert neighbors(case, bus) == {
            br.to_bus if br.from_bus == bus else br.from_bus
            for br in case.branches
            if bus in (br.from_bus, br.to_bus)
        }
    mat = incidence_matrix(case)
    for i, br in enumerate(case.branches):
        row = np.zeros(len(case.buses), dtype=int)
        row[case.bus_ids.index(br.from_bus)] = 1
        row[case.bus_ids.index(br.to_bus)] = -1
        assert (mat[i] == row).all()
    with pytest.raises(KeyError, match="unknown bus id 119"):
        case.incident_branches(119)


@st.composite
def loose_cases(draw):
    """A case of up to 10 buses with scattered ids, in up to three groups no
    branch joins: it may have several components, isolated buses, parallel
    branches, or no buses at all."""
    ids = draw(st.lists(st.integers(1, 500), max_size=10, unique=True))
    group = {bus: draw(st.integers(0, 2)) for bus in ids}
    pairs = []
    if ids:
        drawn = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=14))
        pairs = [(f, t) for f, t in drawn if f != t and group[f] == group[t]]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))  # parallel branches
    return NetworkCase(
        name="loose",
        buses=tuple(Bus(i) for i in ids),
        branches=tuple(Branch(f, t, 0.0, 1.0 + k) for k, (f, t) in enumerate(pairs)),
    )


def _scanned_channels(case, placement, dedupe):
    """enumerate_channels' list from a scan of every branch of the case."""
    pmus = placement.bus_set
    channels = []
    for bus in placement.buses:
        channels += [MeasurementChannel(ChannelKind.VR, bus), MeasurementChannel(ChannelKind.VX, bus)]
    metered = []
    for idx, br in enumerate(case.branches):
        lo, hi = sorted((br.from_bus, br.to_bus))
        hosts = sorted(end for end in (br.from_bus, br.to_bus) if end in pmus)
        for host in hosts[:1] if dedupe == "by-branch" else hosts:
            metered.append((lo, hi, idx, host))
    for _, _, idx, host in sorted(metered):
        channels += [MeasurementChannel(ChannelKind.IR, host, idx),
                     MeasurementChannel(ChannelKind.IX, host, idx)]
    return tuple(channels)


@settings(max_examples=200, deadline=None)
@given(loose_cases(), st.data())
def test_topology_reads_match_scans_of_the_branches(case, data):
    adjacent = {bus: set() for bus in case.bus_ids}
    degree = dict.fromkeys(case.bus_ids, 0)
    for br in case.branches:
        adjacent[br.from_bus].add(br.to_bus)
        adjacent[br.to_bus].add(br.from_bus)
        degree[br.from_bus] += 1
        degree[br.to_bus] += 1
    for bus in case.bus_ids:
        assert neighbors(case, bus) == adjacent[bus]
    with pytest.raises(KeyError, match="unknown bus id 501"):
        neighbors(case, 501)
    reached = set(case.bus_ids[:1])
    stack = list(reached)
    while stack:
        for nxt in adjacent[stack.pop()] - reached:
            reached.add(nxt)
            stack.append(nxt)
    assert case.is_connected() == (len(reached) == len(case.buses))
    if not case.buses:
        return
    buses = data.draw(st.lists(st.sampled_from(case.bus_ids), min_size=1, unique=True))
    placement = PmuPlacement.of(buses, channel_limit=max(1, *degree.values()))
    for dedupe in ("by-branch", "per-end"):
        got = enumerate_channels(case, placement, dedupe).channels
        assert got == _scanned_channels(case, placement, dedupe)


def test_position_bits_list_ids_in_order_with_their_positions():
    case = NetworkCase(
        name="scrambled",
        buses=tuple(Bus(i) for i in (30, 4, 17, 9)),
        branches=(Branch(30, 4, 0.0, 0.1), Branch(17, 9, 0.0, 0.1), Branch(4, 9, 0.0, 0.1)),
    )
    assert case.position_bits == {4: 2, 9: 8, 17: 4, 30: 1}
    assert list(case.position_bits) == [4, 9, 17, 30]
    assert case.buses_in(1 | 4 | 8) == [9, 17, 30]
    assert case.buses_in(case.incidence[9][3]) == [4, 9, 17]


@st.composite
def scattered_cases(draw):
    """A case of unique ids in any order, so positions need not ascend by id;
    the decoder reads no branch."""
    ids = draw(st.lists(st.integers(1, 500), max_size=12, unique=True))
    return NetworkCase(name="drawn", buses=tuple(Bus(i) for i in ids), branches=())


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_buses_in_lists_what_a_walk_of_position_bits_lists(ieee14, ieee118, data):
    # the decoder reads a mask from its short side and sorts only when the
    # case's ids do not ascend by position; masks of every size, negative
    # ones and ones with bits past the last position must list the ids a
    # walk of position_bits keeps, ignoring every bit outside positions 0..N-1
    flipped = NetworkCase("flipped", ieee14.buses[::-1], ieee14.branches[::-1])
    case = data.draw(st.one_of(scattered_cases(), st.sampled_from([ieee14, ieee118, flipped])),
                     label="case")
    n = len(case.buses)
    size = data.draw(st.one_of(st.integers(0, n), st.integers(max(0, n - 3), n)), label="size")
    mask = sum(1 << p for p in data.draw(st.permutations(range(n)), label="order")[:size])
    outside = data.draw(st.integers(1, 2**8), label="bits past N") << n
    mask = data.draw(st.sampled_from([mask, 0, (1 << n) - 1, -1, ~mask, -mask, mask | outside]),
                     label="mask")
    got = case.buses_in(mask)
    assert type(got) is list
    assert got == sorted(bus for bus, bit in case.position_bits.items() if mask & bit)


# ---- parser fuzzing -----------------------------------------------------------
# Every input either parses to a case that survives serialize_case -> JSON ->
# parse unchanged, or raises CaseFormatError naming the offending position.

# Mostly well-formed cases: buses 1..n in some order, branches between them.
# Half the cases get one corrupted cell; a few branches dangle.
_BAD_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["NaN", "-Inf", "1e400", "2.5", "-1", "0", "1", "x", "0x1", "1_0"]),
)
_BAD_VALUES = st.one_of(
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(["3", "1.5", "x", 2.5, -1, 0, 1, 10**400, [1], {}]),
)


@st.composite
def _tables(draw, bad):
    """Bus rows (6 cells) and branch rows (5 to 11 cells) as value lists."""
    n = draw(st.integers(0, 6))
    nums = st.floats(-5, 5, allow_nan=False)
    buses = [[bus, 1, 0.0, 0.0, draw(nums), draw(nums)]
             for bus in draw(st.permutations(range(1, n + 1)))]
    branches = []
    for _ in range(draw(st.integers(0, 8)) if n > 1 else 0):
        f, t = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        if draw(st.integers(0, 9)) == 0:
            t = n + 1
        cells = [f, t, draw(nums), draw(st.floats(0.01, 1)), draw(nums), 0, 0, 0,
                 draw(st.sampled_from([1.0, 0.95, 1.05])), draw(st.floats(-360, 360)),
                 draw(st.sampled_from([1, 1, 0]))]
        branches.append(cells[: draw(st.integers(5, 11))])
    rows = buses + branches
    if rows and draw(st.booleans()):
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        cells[draw(st.integers(0, len(cells) - 1))] = draw(bad)
    return buses, branches


@st.composite
def matpower_texts(draw):
    buses, branches = draw(_tables(_BAD_TOKENS))

    def rows(table):
        return ["    " + "  ".join(str(c) for c in cells)
                + draw(st.sampled_from(["", ";", ";  % note"])) for cells in table]

    base = draw(_BAD_TOKENS) if draw(st.integers(0, 9)) == 0 else "100"
    lines = ["function mpc = fuzz", f"mpc.baseMVA = {base};"]
    lines += ["mpc.bus = [", *rows(buses), "];", "mpc.branch = [", *rows(branches), "];"]
    return "\n".join(lines) + "\n"


@st.composite
def json_texts(draw):
    buses, branches = draw(_tables(_BAD_VALUES))

    def entries(table, keys):
        out = []
        for cells in table:
            entry = dict(zip(keys, cells))
            if draw(st.integers(0, 9)) == 0:
                entry = draw(_BAD_VALUES)  # not an object at all
            elif draw(st.integers(0, 9)) == 0:
                del entry[draw(st.sampled_from(sorted(entry)))]
            out.append(entry)
        return out

    doc = {
        "name": draw(st.one_of(st.just("case"), _BAD_VALUES)),
        "buses": entries(buses, ["id", "type", "pd", "qd", "shunt_g", "shunt_b"]),
        "branches": entries(branches, ["from", "to", "r", "x", "b", "ra", "rb", "rc",
                                       "tap", "shift", "status"]),
    }
    text = json.dumps(doc)
    if draw(st.integers(0, 5)) == 0:
        text = text[: draw(st.integers(1, len(text) - 1))]
    return text


def _is_json_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _assert_round_trips_or_names_a_position(text, fmt, position):
    try:
        case = parse_case(text, format=fmt, name="fuzz")
    except CaseFormatError as err:
        assert re.match(position, str(err)), str(err)
        return
    if fmt == "json":
        # an accepted document holds JSON numbers in every field the parser reads
        doc = json.loads(text)
        assert isinstance(doc.get("name", ""), str), doc["name"]
        for table, keys in (("buses", ("id", "shunt_g", "shunt_b")),
                            ("branches", ("from", "to", "r", "x", "b", "tap", "shift"))):
            for entry in doc[table]:
                assert all(_is_json_number(entry[k]) for k in keys if k in entry), entry
    doc = serialize_case(case)
    again = parse_case(json.dumps(doc), format="json", name="other")
    assert again == case
    assert serialize_case(again) == doc


@settings(max_examples=300, deadline=None)
@given(matpower_texts())
def test_matpower_parser_fuzz(text):
    _assert_round_trips_or_names_a_position(text, "matpower-subset", r"fuzz:\d+: ")


@settings(max_examples=300, deadline=None)
@given(json_texts())
def test_json_parser_fuzz(text):
    _assert_round_trips_or_names_a_position(
        text, "json",
        r"fuzz: (malformed (bus|branch) entry \d+: |invalid JSON at line \d+, column \d+$"
        r"|case name must be a JSON string, got )",
    )
