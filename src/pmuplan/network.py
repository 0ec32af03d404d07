"""Power-network case model: buses, branches and topology.

A :class:`NetworkCase` is the immutable graph everything else consumes. Cases
are read either from a subset of the MATPOWER ``.m`` layout (bus and branch
tables; generator and cost tables are ignored) or from a native JSON schema,
and can be serialized back to that JSON schema losslessly.

Topology is derived once, in :attr:`NetworkCase.incidence`: degrees,
neighbors, connectivity and what a placement meters or observes all read
that index, and ``branches`` is read only for per-branch data. Branch
admittances and the dense branch-to-bus matrix belong to the linear-algebra
pipeline, :mod:`pmuplan.linalg`.
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
from dataclasses import dataclass

__all__ = [
    "Bus",
    "Branch",
    "NetworkCase",
    "CaseFormatError",
    "parse_case",
    "serialize_case",
    "neighbors",
]


class CaseFormatError(ValueError):
    """Raised for malformed case input; carries a human-readable position."""


@dataclass(frozen=True)
class Bus:
    """A network bus.

    Parameters
    ----------
    id : int
        Positive bus number, unique within a case. The ids of all buses
        form the ground set over which placements are chosen.
    shunt_g : float
        Per-unit shunt conductance to ground.
    shunt_b : float
        Per-unit shunt susceptance to ground.
    """

    id: int
    shunt_g: float = 0.0
    shunt_b: float = 0.0

    def __post_init__(self) -> None:
        if self.id <= 0:
            raise ValueError(f"bus id must be positive, got {self.id}")
        _require_finite(f"bus {self.id}", shunt_g=self.shunt_g, shunt_b=self.shunt_b)


@dataclass(frozen=True)
class Branch:
    """A series branch (line or transformer) between two buses.

    ``tap`` is the off-nominal turns ratio at the from end (1.0 for a plain
    line) and ``shift`` the phase shift in radians. ``b_charging`` is the
    total line-charging susceptance; half is lumped at each end.
    """

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charging: float = 0.0
    tap: float = 1.0
    shift: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(
            f"branch {self.from_bus}-{self.to_bus}",
            r=self.r, x=self.x, b=self.b_charging, tap=self.tap, shift=self.shift,
        )
        if self.from_bus == self.to_bus:
            raise ValueError(f"branch endpoints coincide at bus {self.from_bus}")
        if self.r == 0.0 and self.x == 0.0:
            raise ValueError(
                f"branch {self.from_bus}-{self.to_bus} has zero series impedance"
            )
        if self.tap <= 0.0:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus} has tap <= 0")


@dataclass(frozen=True)
class NetworkCase:
    """An immutable network case: named, ordered buses and branches.

    Construction validates the topology and builds the indexes every lookup
    below reads, in O(buses + branches): bus id -> the row ``(branches,
    degree, branch_mask, closed_mask, end_mask)`` of :attr:`incidence`, and
    bus id -> position bit, in ascending id order, :attr:`position_bits`,
    which also gives a bus's position. ``branches`` are the indices of the
    incident branches and ``degree`` their number; ``branch_mask`` sets bit
    i for each incident branch i, ``closed_mask`` sets the position bit of
    the bus and of every neighbor, and ``end_mask`` sets bit 2i where the
    bus is branch i's from end and 2i + 1 where it is the to end. Scoring a
    placement is then one OR over its buses' masks and one popcount, with
    no per-branch work. Kept privately: the rows and the ids by position,
    which let the count accumulator read a mask of position bits without
    its ids; the set of bus ids; the largest degree; and whether the ids
    ascend by position. A single set bit names its bus as
    ``buses[bit.bit_length() - 1]``; :meth:`buses_in` decodes a mask.
    """

    name: str
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        position = {b.id: i for i, b in enumerate(self.buses)}
        if len(position) != len(self.buses):
            ids = [b.id for b in self.buses]
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise CaseFormatError(f"duplicate bus id(s): {dup}")
        incident: dict[int, list[int]] = {bus: [] for bus in position}
        closed = {bus: 1 << pos for bus, pos in position.items()}
        ends = dict.fromkeys(position, 0)
        for i, br in enumerate(self.branches):
            for end in (br.from_bus, br.to_bus):
                if end not in incident:
                    raise CaseFormatError(
                        f"branch {br.from_bus}-{br.to_bus} references unknown bus {end}"
                    )
                incident[end].append(i)
            closed[br.from_bus] |= 1 << position[br.to_bus]
            closed[br.to_bus] |= 1 << position[br.from_bus]
            ends[br.from_bus] |= 1 << (2 * i)
            ends[br.to_bus] |= 1 << (2 * i + 1)
        # derived indexes, not fields: equality and hashing stay on the data
        object.__setattr__(self, "_bits", {bus: 1 << position[bus] for bus in sorted(position)})
        object.__setattr__(self, "_incidence", {
            bus: (tuple(ix), len(ix), sum(1 << i for i in ix), closed[bus], ends[bus])
            for bus, ix in incident.items()
        })
        # by position: the same row objects, and the ids a mask's bits name
        object.__setattr__(self, "_rows", tuple(self._incidence.values()))
        ids = tuple(position)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_id_set", frozenset(ids))
        object.__setattr__(self, "_max_degree", max(map(len, incident.values()), default=0))
        object.__setattr__(self, "_ascending", all(map(operator.lt, ids, ids[1:])))

    @property
    def bus_ids(self) -> tuple[int, ...]:
        return self._ids

    @property
    def incidence(self) -> dict[int, tuple[tuple[int, ...], int, int, int, int]]:
        """Bus id -> ``(branches, degree, branch_mask, closed_mask, end_mask)``; read-only.

        Rows are plain tuples so hot loops can index them cheaply. Bits of
        ``closed_mask`` are bus positions; :meth:`buses_in` decodes them.
        """
        return self._incidence

    @property
    def position_bits(self) -> dict[int, int]:
        """Bus id -> position bit, in ascending id order; read-only.

        The same bits as :meth:`buses_in` and ``closed_mask`` read, listed so
        that a walk over it visits the buses sorted by id.
        """
        return self._bits

    def bus_index(self, bus: int) -> int:
        """Position of a bus id in the case's bus ordering."""
        try:
            return self._bits[bus].bit_length() - 1
        except KeyError:
            raise KeyError(f"unknown bus id {bus}") from None

    def buses_in(self, mask: int) -> list[int]:
        """Sorted ids of the buses whose position bits are set in ``mask``;
        bits outside positions ``0..N-1`` are ignored, so ``-1`` lists every
        bus. Decoded by :func:`_ids_in`, sorted only when the case's ids do
        not ascend by position."""
        found = _ids_in(self._ids, mask)
        return list(found) if self._ascending else sorted(found)

    def incident_branches(self, bus: int) -> tuple[int, ...]:
        """Indices (into ``branches``) of all branches touching ``bus``."""
        try:
            return self._incidence[bus][0]
        except KeyError:
            raise KeyError(f"unknown bus id {bus}") from None

    def is_connected(self) -> bool:
        """Whether every bus is reachable from the first; a case with no
        buses is connected. A flood fill over the ``closed_mask`` bits."""
        closed = [row[3] for row in self._incidence.values()]  # by bus position
        seen = frontier = 1 if closed else 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            reached = closed[bit.bit_length() - 1] & ~seen
            seen |= reached
            frontier |= reached
        return seen.bit_count() == len(closed)


def _ids_in(ids: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The ids, in position order, whose positions in ``ids`` are set in
    ``mask``; bits outside positions ``0..len(ids)-1`` are ignored. Read
    from the short side: a mask of at most half the positions from its
    set bits, a larger one as ``ids`` sliced around its clear bits."""
    everyone = (1 << len(ids)) - 1
    mask &= everyone
    if 2 * mask.bit_count() <= len(ids):
        found = []
        while mask:
            bit = mask & -mask
            found.append(ids[bit.bit_length() - 1])
            mask ^= bit
        return tuple(found)
    # the runs between clear bits, sliced from the top down
    clear, end, found = everyone ^ mask, len(ids), ()
    while clear:
        position = clear.bit_length() - 1
        found = ids[position + 1:end] + found
        clear ^= 1 << position
        end = position
    return ids[:end] + found


def _require_finite(owner: str, **values: float) -> None:
    for label, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{owner} has non-finite {label}={value!r}")


def _integral(value, label: str) -> int:
    """An integer-valued number as int; anything else fails, booleans,
    strings, fractions and non-finite values included."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not (isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return int(value)


def _require_count(name: str, value, low: int = 0, high: int | None = None) -> None:
    """Raise ValueError naming ``name`` and ``value`` unless it is an int, not
    a bool, that is >= 0, or in ``low..high`` when ``high`` is given."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return
    span = "a nonnegative integer" if high is None else f"in {low}..{high}"
    raise ValueError(f"{name} must be {span}, got {value!r}")


def _require_tol(name: str, value) -> None:
    """Raise ValueError naming ``name`` and ``value`` unless it is a finite
    real number >= 0, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 <= value < math.inf):
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


def _require_sigma(name: str, value) -> None:
    """Raise ValueError naming ``name`` and ``value`` unless it is a real
    number > 0 within the float range, not a bool, whose square as a float
    is finite and > 0 too: the covariance holds sigma * sigma, which over-
    or underflows far inside the finite range (sigma ** 2 would raise
    OverflowError instead), and an int past the largest float cannot be
    converted at all."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    sigma = float(value)
    if not 0.0 < sigma * sigma < math.inf:
        raise ValueError(f"{name} must square to a finite, positive variance, got {value!r}")


def _require_ids(ids: tuple, what: str) -> None:
    """Raise ValueError naming ``what`` and the first of ``ids`` that is not
    an int or is a bool. Read the entries as given: a set would fold
    ``True`` into 1 and ``2.0`` into 2."""
    if not {int}.issuperset(map(type, ids)):
        bad = next(bus for bus in ids if type(bus) is not int)
        raise ValueError(f"{what} bus ids must be integers, got {bad!r}")


def _require_buses(case: NetworkCase, buses, what: str) -> frozenset:
    """``buses`` as a frozenset of the case's bus ids. Raise ValueError
    naming ``what`` and the first entry that is not an int or is a bool
    (see :func:`_require_ids`), or else the ids the case lacks."""
    ids = tuple(buses)
    _require_ids(ids, what)
    found = frozenset(ids)
    if not found <= case._id_set:
        raise ValueError(f"{what} buses not in the case: {sorted(found - case._id_set)}")
    return found


def _number(entry: dict, key: str, default: float | None = None) -> float:
    """A JSON entry's numeric field as float; strings and booleans fail."""
    value = entry[key] if default is None else entry.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _check_endpoints(branch: Branch, known) -> None:
    """The parsers' per-row form of NetworkCase's endpoint check."""
    for end in (branch.from_bus, branch.to_bus):
        if end not in known:
            raise ValueError(
                f"branch {branch.from_bus}-{branch.to_bus} references unknown bus {end}"
            )


def _strip_matlab_comments(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def _matpower_table(text: str, name: str, path_hint: str) -> list[tuple[int, list[float]]]:
    """Extract rows of ``mpc.<name> = [ ... ];`` with their 1-based line numbers."""
    pattern = re.compile(rf"mpc\.{name}\s*=\s*\[", re.M)
    match = pattern.search(text)
    if match is None:
        raise CaseFormatError(f"{path_hint}: missing 'mpc.{name}' table")
    start_line = text.count("\n", 0, match.end()) + 1
    tail = text[match.end():]
    end = tail.find("];")
    if end < 0:
        raise CaseFormatError(f"{path_hint}:{start_line}: unterminated 'mpc.{name}' table")
    rows: list[tuple[int, list[float]]] = []
    for offset, raw in enumerate(tail[:end].split("\n")):
        line = _strip_matlab_comments(raw).strip().rstrip(";").strip()
        if not line:
            continue
        lineno = start_line + offset
        try:
            rows.append((lineno, [float(tok) for tok in line.split()]))
        except ValueError as exc:
            raise CaseFormatError(f"{path_hint}:{lineno}: bad numeric row: {raw.strip()!r}") from exc
    return rows


def _parse_matpower(text: str, name: str) -> NetworkCase:
    base_mva = 100.0
    base_match = re.search(r"mpc\.baseMVA\s*=\s*([^;\n]*);", text)
    if base_match:
        lineno = text.count("\n", 0, base_match.start()) + 1
        try:
            base_mva = float(base_match.group(1))
        except ValueError:
            base_mva = math.nan
        if not (math.isfinite(base_mva) and base_mva > 0.0):
            raise CaseFormatError(
                f"{name}:{lineno}: baseMVA must be a positive finite number, "
                f"got {base_match.group(1).strip()!r}"
            )

    buses = []
    first_line: dict[int, int] = {}  # bus id -> line that declares it
    for lineno, row in _matpower_table(text, "bus", name):
        if len(row) < 6:
            raise CaseFormatError(f"{name}:{lineno}: bus row needs >= 6 columns")
        try:
            bus = Bus(
                id=_integral(row[0], "bus id"),
                shunt_g=row[4] / base_mva,
                shunt_b=row[5] / base_mva,
            )
            if bus.id in first_line:
                raise ValueError(f"duplicate bus id {bus.id}, first on line {first_line[bus.id]}")
        except ValueError as exc:
            raise CaseFormatError(f"{name}:{lineno}: {exc}") from exc
        first_line[bus.id] = lineno
        buses.append(bus)

    branches = []
    for lineno, row in _matpower_table(text, "branch", name):
        if len(row) < 5:
            raise CaseFormatError(f"{name}:{lineno}: branch row needs >= 5 columns")
        try:
            status = _integral(row[10], "branch status") if len(row) > 10 else 1
            if status == 0:
                continue  # out-of-service branches are dropped at parse time
            tap = row[8] if len(row) > 8 and row[8] != 0.0 else 1.0
            shift = math.radians(row[9]) if len(row) > 9 else 0.0
            branch = Branch(
                from_bus=_integral(row[0], "branch from bus"),
                to_bus=_integral(row[1], "branch to bus"),
                r=row[2],
                x=row[3],
                b_charging=row[4],
                tap=tap,
                shift=shift,
            )
            _check_endpoints(branch, first_line)
            branches.append(branch)
        except ValueError as exc:
            raise CaseFormatError(f"{name}:{lineno}: {exc}") from exc
    return NetworkCase(name=name, buses=tuple(buses), branches=tuple(branches))


def _parse_json(text: str, name: str) -> NetworkCase:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"{name}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:
        # integers past the interpreter's digit limit; nesting past the recursion limit
        raise CaseFormatError(f"{name}: invalid JSON: {exc}") from exc
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("buses"), list)
        and isinstance(doc.get("branches"), list)
    ):
        raise CaseFormatError(f"{name}: JSON case needs 'buses' and 'branches' arrays")
    case_name = doc.get("name", name)
    if not isinstance(case_name, str):
        raise CaseFormatError(f"{name}: case name must be a JSON string, got {json.dumps(case_name)}")
    buses = []
    first_entry: dict[int, int] = {}  # bus id -> entry that declares it
    for i, b in enumerate(doc["buses"]):
        try:
            bus = Bus(
                id=_integral(b["id"], "bus id"),
                shunt_g=_number(b, "shunt_g", 0.0),
                shunt_b=_number(b, "shunt_b", 0.0),
            )
            if bus.id in first_entry:
                raise ValueError(f"duplicate bus id {bus.id}, first in entry {first_entry[bus.id]}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CaseFormatError(f"{name}: malformed bus entry {i}: {exc}") from exc
        first_entry[bus.id] = i
        buses.append(bus)
    branches = []
    for i, br in enumerate(doc["branches"]):
        try:
            branch = Branch(
                from_bus=_integral(br["from"], "branch from bus"),
                to_bus=_integral(br["to"], "branch to bus"),
                r=_number(br, "r"),
                x=_number(br, "x"),
                b_charging=_number(br, "b", 0.0),
                tap=_number(br, "tap", 1.0),
                shift=_number(br, "shift", 0.0),
            )
            _check_endpoints(branch, first_entry)
            branches.append(branch)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CaseFormatError(f"{name}: malformed branch entry {i}: {exc}") from exc
    return NetworkCase(name=case_name, buses=tuple(buses), branches=tuple(branches))


def parse_case(text: str, format: str = "matpower-subset", name: str = "case") -> NetworkCase:
    """Parse case text into a validated :class:`NetworkCase`.

    Parameters
    ----------
    text : str
        Raw case file content.
    format : {"matpower-subset", "json"}
        Input layout. The MATPOWER subset reads ``mpc.baseMVA``, ``mpc.bus``
        and ``mpc.branch``; every other table is ignored. Shunt columns are
        converted to per unit on the case base. Branch taps of 0 mean 1.0
        and the phase-shift column (degrees) is converted to radians.
    name : str
        Label used in the case and in error positions.

    Raises
    ------
    CaseFormatError
        On syntax problems, non-finite numbers, non-integral or duplicate
        bus ids, or branch endpoints that reference undeclared buses. An
        error in a row or entry names its position: ``name:line`` for
        MATPOWER, the entry index for JSON.
    """
    if format == "matpower-subset":
        return _parse_matpower(text, name)
    if format == "json":
        return _parse_json(text, name)
    raise CaseFormatError(f"unknown case format {format!r}")


def serialize_case(case: NetworkCase) -> dict:
    """Render a case as a JSON-ready dict; inverse of the JSON parser."""
    return {
        "schema": "network-case/1",
        "name": case.name,
        "buses": [
            {"id": b.id, "shunt_g": b.shunt_g, "shunt_b": b.shunt_b} for b in case.buses
        ],
        "branches": [
            {
                "from": br.from_bus,
                "to": br.to_bus,
                "r": br.r,
                "x": br.x,
                "b": br.b_charging,
                "tap": br.tap,
                "shift": br.shift,
            }
            for br in case.branches
        ],
    }


def neighbors(case: NetworkCase, bus: int) -> set[int]:
    """All buses sharing a branch with ``bus``, read off its ``closed_mask``;
    ``KeyError`` for an unknown bus."""
    own = 1 << case.bus_index(bus)
    return set(case.buses_in(case.incidence[bus][3] ^ own))
