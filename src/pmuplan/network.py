"""Power-network case model: buses, branches, topology, and branch admittances.

A :class:`NetworkCase` is the immutable graph everything else consumes. Cases
are read either from a subset of the MATPOWER ``.m`` layout (bus and branch
tables; generator and cost tables are ignored) or from a native JSON schema,
and can be serialized back to that JSON schema losslessly.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Bus",
    "Branch",
    "NetworkCase",
    "CaseFormatError",
    "parse_case",
    "serialize_case",
    "incidence_matrix",
    "branch_end_admittances",
    "metered_admittances",
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

    Construction validates the topology and builds the one incidence index
    every lookup below reads: bus id -> position and bus id -> incident
    branch indices, both in O(buses + branches).
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
        for i, br in enumerate(self.branches):
            for end in (br.from_bus, br.to_bus):
                if end not in incident:
                    raise CaseFormatError(
                        f"branch {br.from_bus}-{br.to_bus} references unknown bus {end}"
                    )
                incident[end].append(i)
        # derived indexes, not fields: equality and hashing stay on the data
        object.__setattr__(self, "_position", position)
        object.__setattr__(
            self, "_incident", {bus: tuple(ix) for bus, ix in incident.items()}
        )

    @property
    def bus_ids(self) -> tuple[int, ...]:
        return tuple(self._position)

    def bus_index(self, bus: int) -> int:
        """Position of a bus id in the case's bus ordering."""
        try:
            return self._position[bus]
        except KeyError:
            raise KeyError(f"unknown bus id {bus}") from None

    def incident_branches(self, bus: int) -> tuple[int, ...]:
        """Indices (into ``branches``) of all branches touching ``bus``."""
        try:
            return self._incident[bus]
        except KeyError:
            raise KeyError(f"unknown bus id {bus}") from None

    def is_connected(self) -> bool:
        if not self.buses:
            return True
        adj: dict[int, set[int]] = {b.id: set() for b in self.buses}
        for br in self.branches:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
        seen = {self.buses[0].id}
        stack = [self.buses[0].id]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.buses)


def _require_finite(owner: str, **values: float) -> None:
    for label, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{owner} has non-finite {label}={value!r}")


def _integral(value, label: str) -> int:
    """An integer-valued number as int; fractions and non-finite values fail."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be an integer, got {value!r}") from None
    if not number.is_integer():
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return int(number)


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
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("buses"), list)
        and isinstance(doc.get("branches"), list)
    ):
        raise CaseFormatError(f"{name}: JSON case needs 'buses' and 'branches' arrays")
    buses = []
    first_entry: dict[int, int] = {}  # bus id -> entry that declares it
    for i, b in enumerate(doc["buses"]):
        try:
            bus = Bus(
                id=_integral(b["id"], "bus id"),
                shunt_g=float(b.get("shunt_g", 0.0)),
                shunt_b=float(b.get("shunt_b", 0.0)),
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
                r=float(br["r"]),
                x=float(br["x"]),
                b_charging=float(br.get("b", 0.0)),
                tap=float(br.get("tap", 1.0)),
                shift=float(br.get("shift", 0.0)),
            )
            _check_endpoints(branch, first_entry)
            branches.append(branch)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CaseFormatError(f"{name}: malformed branch entry {i}: {exc}") from exc
    return NetworkCase(name=str(doc.get("name", name)), buses=tuple(buses), branches=tuple(branches))


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


def incidence_matrix(case: NetworkCase) -> np.ndarray:
    """Branch-to-bus incidence matrix, one row per branch.

    Each row carries +1 in the from-bus column and -1 in the to-bus column,
    with columns following the case's bus ordering.
    """
    import numpy as np

    mat = np.zeros((len(case.branches), len(case.buses)), dtype=int)
    for i, br in enumerate(case.branches):
        mat[i, case.bus_index(br.from_bus)] = 1
        mat[i, case.bus_index(br.to_bus)] = -1
    return mat


def branch_end_admittances(branch: Branch, flat: bool = False) -> tuple[complex, complex]:
    """Self and mutual admittance at the from end of a branch.

    With series admittance ``y_s = 1/(r + jx)``, tap ratio ``t`` and phase
    shift ``theta``, the metered from-end current is
    ``I_f = Y_ff * V_f + Y_ft * V_t`` where::

        Y_ff = (y_s + j*b_charging/2) / t**2
        Y_ft = -y_s / (t * e^{-j*theta})

    Use :func:`metered_admittances` for a current metered at either end.

    Parameters
    ----------
    branch : Branch
    flat : bool
        When true, ignore taps, shifts and charging and return the bare
        series admittance pair ``(y_s, -y_s)``.
    """
    y_s = 1.0 / complex(branch.r, branch.x)
    if flat:
        return y_s, -y_s
    tap = branch.tap * cmath.exp(1j * branch.shift)
    y_ff = (y_s + 1j * branch.b_charging / 2.0) / (tap * tap.conjugate())
    y_ft = -y_s / tap.conjugate()
    return y_ff, y_ft


def metered_admittances(branch: Branch, end: int, flat: bool = False) -> tuple[complex, complex]:
    """Self and mutual admittance for the current metered at ``end``.

    Returns ``(y_self, y_other)`` such that the metered current is
    ``I = y_self * V_end + y_other * V_far``. The off-nominal tap sits
    entirely on the from side, so the to-end pair is
    ``Y_tt = y_s + j*b/2`` and ``Y_tf = -y_s / (t * e^{j*theta})``.
    """
    if end == branch.from_bus:
        return branch_end_admittances(branch, flat=flat)
    if end != branch.to_bus:
        raise ValueError(f"bus {end} is not an endpoint of branch {branch.from_bus}-{branch.to_bus}")
    y_s = 1.0 / complex(branch.r, branch.x)
    if flat:
        return y_s, -y_s
    tap = branch.tap * cmath.exp(1j * branch.shift)
    y_tt = y_s + 1j * branch.b_charging / 2.0
    y_tf = -y_s / tap
    return y_tt, y_tf


def neighbors(case: NetworkCase, bus: int) -> set[int]:
    """All buses sharing a branch with ``bus``, deduplicated."""
    out: set[int] = set()
    for i in case.incident_branches(bus):
        br = case.branches[i]
        out.add(br.to_bus if br.from_bus == bus else br.from_bus)
    return out
