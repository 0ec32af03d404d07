"""Linear-algebra pipeline: channel list, Jacobian, whitened SVD and diag(S).

A placement expands to its ordered channel list (:func:`enumerate_channels`),
the list to the dense measurement Jacobian H (:func:`build_jacobian`, with
:func:`metered_admittances` for each current row), and H with a diagonal
covariance R to one whitened SVD, from which come the WLS estimate, the
projection matrix K = H (H' R^-1 H)^-1 H' R^-1 and the residual sensitivity
matrix S = I - K.

The placement score, the average of diag(S), is a count that
:mod:`pmuplan.estimation` computes without any of this (see its
docstring). The pipeline serves the per-channel ``metrics`` report
(:func:`sensitivity_report`) and the tests that pin the count against it.
It is the one module that imports numpy: nothing else in the package
imports it, so the planners, the audit and every command but ``metrics``
start without numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .estimation import StateScope, UnobservableStateError, _state_scope
from .measurements import PmuPlacement, _union
from .network import Branch, NetworkCase, _require_sigma

__all__ = [
    "ChannelKind",
    "MeasurementChannel",
    "MeasurementSet",
    "enumerate_channels",
    "incidence_matrix",
    "metered_admittances",
    "Jacobian",
    "CovarianceModel",
    "SensitivityReport",
    "build_jacobian",
    "wls_estimate",
    "projection_matrix",
    "sensitivity_matrix",
    "diag_metrics",
    "sensitivity_report",
]

# singular values below RANK_RTOL * sigma_max count as zero
RANK_RTOL = 1e-10


class ChannelKind(str, Enum):
    VR = "Vr"
    VX = "Vx"
    IR = "Ir"
    IX = "Ix"


@dataclass(frozen=True)
class MeasurementChannel:
    """One real-valued channel.

    Voltage channels carry no branch; current channels reference the metered
    branch by its index in the case plus the endpoint the PMU meters from.
    """

    kind: ChannelKind
    bus: int
    branch_index: int | None = None

    def __post_init__(self) -> None:
        is_voltage = self.kind in (ChannelKind.VR, ChannelKind.VX)
        if is_voltage and self.branch_index is not None:
            raise ValueError("voltage channels carry no branch reference")
        if not is_voltage and self.branch_index is None:
            raise ValueError("current channels need a branch reference")


@dataclass(frozen=True)
class MeasurementSet:
    """Canonically ordered channels induced by a placement.

    Ordering: all voltage channels by bus id (Vr before Vx), then current
    channels by (min endpoint, max endpoint, branch position, metered bus),
    Ir before Ix. The ordering is fixed so downstream matrices and reports
    are byte-reproducible.
    """

    channels: tuple[MeasurementChannel, ...]
    placement: PmuPlacement
    dedupe: str = "by-branch"

    def __len__(self) -> int:
        return len(self.channels)


def enumerate_channels(
    case: NetworkCase,
    placement: PmuPlacement,
    dedupe: str = "by-branch",
) -> MeasurementSet:
    """Expand a placement into its explicit channel list.

    Its length is the count :func:`~pmuplan.measurements.metered_mask`
    gives, ``m = 2|Q| + 2 * popcount``, and it validates through the same
    accumulator, so the two raise alike.

    Parameters
    ----------
    case : NetworkCase
    placement : PmuPlacement
        Buses must exist in the case and each must satisfy the placement's
        channel limit against its incident-branch count.
    dedupe : {"by-branch", "per-end"}
        Under ``by-branch`` a branch with PMUs at both ends contributes one
        (Ir, Ix) pair, metered at the lower-numbered endpoint. Under
        ``per-end`` both ends contribute a pair.

    Raises
    ------
    ValueError
        Unknown dedupe policy.
    KeyError, ChannelLimitError
        Naming the first offending bus.
    """
    _union(case, placement.buses, dedupe, placement.channel_limit)

    channels: list[MeasurementChannel] = []
    # (min end, max end, branch position, metered bus) keeps parallel branches
    # and per-end duplicates in a stable order.
    metered: list[tuple[int, int, int, int]] = []
    taken: set[int] = set()
    for bus in placement.buses:  # ascending, so by-branch meters at the lower host
        channels.append(MeasurementChannel(ChannelKind.VR, bus))
        channels.append(MeasurementChannel(ChannelKind.VX, bus))
        for idx in case.incident_branches(bus):
            if idx in taken:
                continue
            if dedupe == "by-branch":
                taken.add(idx)
            br = case.branches[idx]
            metered.append((min(br.from_bus, br.to_bus), max(br.from_bus, br.to_bus), idx, bus))
    metered.sort()
    for _, _, idx, host in metered:
        channels.append(MeasurementChannel(ChannelKind.IR, host, idx))
        channels.append(MeasurementChannel(ChannelKind.IX, host, idx))

    return MeasurementSet(channels=tuple(channels), placement=placement, dedupe=dedupe)


def incidence_matrix(case: NetworkCase) -> np.ndarray:
    """Branch-to-bus incidence matrix, one row per branch.

    Each row carries +1 in the from-bus column and -1 in the to-bus column,
    with columns following the case's bus ordering.
    """
    mat = np.zeros((len(case.branches), len(case.buses)), dtype=int)
    for i, br in enumerate(case.branches):
        mat[i, case.bus_index(br.from_bus)] = 1
        mat[i, case.bus_index(br.to_bus)] = -1
    return mat


def metered_admittances(branch: Branch, end: int, flat: bool = False) -> tuple[complex, complex]:
    """Self and mutual admittance for the current metered at ``end``.

    Returns ``(y_self, y_other)`` such that the metered current is
    ``I = y_self * V_end + y_other * V_far``. With series admittance
    ``y_s = 1/(r + jx)``, tap ratio ``t`` and phase shift ``theta``, the
    off-nominal tap sits entirely on the from side::

        from end:  Y_ff = (y_s + j*b_charging/2) / t**2,  Y_ft = -y_s / (t * e^{-j*theta})
        to end:    Y_tt = y_s + j*b_charging/2,           Y_tf = -y_s / (t * e^{j*theta})

    ``flat=True`` ignores taps, shifts and charging: either end gets the
    bare series pair ``(y_s, -y_s)``. ``ValueError`` if ``end`` is neither
    endpoint.
    """
    if end not in (branch.from_bus, branch.to_bus):
        raise ValueError(f"bus {end} is not an endpoint of branch {branch.from_bus}-{branch.to_bus}")
    y_s = 1.0 / complex(branch.r, branch.x)
    if flat:
        return y_s, -y_s
    tap = branch.tap * cmath.exp(1j * branch.shift)
    y_self = y_s + 1j * branch.b_charging / 2.0
    if end == branch.from_bus:
        return y_self / (tap * tap.conjugate()), -y_s / tap.conjugate()
    return y_self, -y_s / tap


@dataclass(frozen=True)
class Jacobian:
    """Dense measurement Jacobian with row and column labels.

    Columns are (bus, coordinate) pairs in case bus order, Vr before Vx per
    bus. Rows follow the canonical channel ordering of the measurement set.
    """

    matrix: np.ndarray
    rows: tuple[MeasurementChannel, ...]
    cols: tuple[tuple[int, str], ...]

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class CovarianceModel:
    """Diagonal measurement covariance (per-channel variances)."""

    variances: tuple[float, ...]

    def __post_init__(self) -> None:
        # written so that nan fails too
        if not all(0.0 < v < math.inf for v in self.variances):
            raise ValueError("all variances must be finite and strictly positive")

    @classmethod
    def unit(cls, m: int) -> "CovarianceModel":
        return cls(variances=(1.0,) * m)

    @classmethod
    def for_channels(
        cls, mset: MeasurementSet, sigma_v: float = 1.0, sigma_i: float = 1.0
    ) -> "CovarianceModel":
        """Per-kind standard deviations expanded to a per-channel diagonal.

        Each sigma must be a finite, positive number, not a bool, and so
        must its square, which overflows above about 1.34e154 and underflows
        below about 2.2e-162; the error names the argument and its value.
        """
        _require_sigma("sigma_v", sigma_v)
        _require_sigma("sigma_i", sigma_i)
        out = []
        for ch in mset.channels:
            sigma = sigma_v if ch.kind in (ChannelKind.VR, ChannelKind.VX) else sigma_i
            out.append(sigma * sigma)
        return cls(variances=tuple(out))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.variances, dtype=float)


@dataclass(frozen=True)
class SensitivityReport:
    """Diagonal of S plus its four scalar summaries and problem dimensions."""

    diag_s: tuple[float, ...]
    min: float
    max: float
    sum: float
    average: float
    m: int
    n: int
    rank: int

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "rank": self.rank,
            "min": self.min,
            "max": self.max,
            "sum": self.sum,
            "average": self.average,
            "diag_s": list(self.diag_s),
        }


def build_jacobian(
    case: NetworkCase,
    mset: MeasurementSet,
    scope: StateScope = StateScope.FULL,
    flat_branch_model: bool = False,
) -> Jacobian:
    """Assemble the dense measurement Jacobian for a channel list.

    Voltage rows carry a single unit entry. A current row metered at bus f
    on branch (f, t) with end admittances ``y_self = g_ff + j b_ff`` and
    ``y_other = g_ft + j b_ft`` expands to

        Ir: +g_ff at (f,Vr)  -b_ff at (f,Vx)  +g_ft at (t,Vr)  -b_ft at (t,Vx)
        Ix: +b_ff at (f,Vr)  +g_ff at (f,Vx)  +b_ft at (t,Vr)  +g_ft at (t,Vx)

    In pmu-state scope, columns exist only for PMU buses and coefficients on
    other buses are discarded.
    """
    if not mset.channels:
        raise ValueError("measurement set is empty")
    if _state_scope(scope) is StateScope.FULL:
        state_buses = list(case.bus_ids)
    else:
        members = mset.placement.bus_set
        state_buses = [b for b in case.bus_ids if b in members]

    cols: list[tuple[int, str]] = []
    for bus in state_buses:
        cols.append((bus, "Vr"))
        cols.append((bus, "Vx"))
    col_of = {label: j for j, label in enumerate(cols)}

    H = np.zeros((len(mset.channels), len(cols)))
    for i, ch in enumerate(mset.channels):
        if ch.kind in (ChannelKind.VR, ChannelKind.VX):
            coord = "Vr" if ch.kind == ChannelKind.VR else "Vx"
            H[i, col_of[(ch.bus, coord)]] = 1.0
            continue
        branch = case.branches[ch.branch_index]
        far = branch.to_bus if ch.bus == branch.from_bus else branch.from_bus
        y_self, y_other = metered_admittances(branch, ch.bus, flat=flat_branch_model)
        for bus, y in ((ch.bus, y_self), (far, y_other)):
            if (bus, "Vr") not in col_of:
                continue  # non-state bus in pmu-state scope
            g, b = y.real, y.imag
            if ch.kind == ChannelKind.IR:
                H[i, col_of[(bus, "Vr")]] += g
                H[i, col_of[(bus, "Vx")]] += -b
            else:
                H[i, col_of[(bus, "Vr")]] += b
                H[i, col_of[(bus, "Vx")]] += g

    return Jacobian(matrix=H, rows=mset.channels, cols=tuple(cols))


def _whitened_svd(H: Jacobian, R: CovarianceModel | None):
    """SVD of R^-1/2 H with the rank rule applied, for a full-column-rank H.

    Returns ``(U, s, Vt, w)`` where ``w`` is the per-row whitening vector
    diag(R^-1/2).

    Raises
    ------
    UnobservableStateError
        With null dimension ``n - m`` when H has fewer rows than columns,
        else ``n - rank`` when the rank falls short of n.
    """
    m, n = H.m, H.n
    if m < n:
        raise UnobservableStateError(n - m)
    if R is None:
        w = np.ones(m)
    else:
        var = R.as_array()
        if var.shape != (m,):
            raise ValueError(f"covariance has {var.shape[0]} entries for {m} channels")
        w = 1.0 / np.sqrt(var)
    U, s, Vt = np.linalg.svd(w[:, None] * H.matrix, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    if rank < n:
        raise UnobservableStateError(n - rank)
    return U, s, Vt, w


def wls_estimate(H: Jacobian, R: CovarianceModel | None, dz: np.ndarray) -> np.ndarray:
    """Weighted-least-squares state update (H' R^-1 H)^-1 H' R^-1 dz.

    Raises
    ------
    UnobservableStateError
        When the gain matrix is rank deficient under the singular-value
        threshold, reporting the null-space dimension.
    """
    dz = np.asarray(dz, dtype=float)
    if dz.shape != (H.m,):
        raise ValueError(f"dz has shape {dz.shape}, expected ({H.m},)")
    U, s, Vt, w = _whitened_svd(H, R)
    return Vt.T @ ((U.T @ (w * dz)) / s)


def projection_matrix(H: Jacobian, R: CovarianceModel | None = None) -> np.ndarray:
    """Hat matrix K = H (H' R^-1 H)^-1 H' R^-1, computed via the whitened SVD.

    With W = diag(R^-1/2) and U the left singular block of W H,
    K = W^-1 U U' W, which is numerically stable and makes the projection
    identities (idempotency, trace = rank) hold to machine precision.
    """
    U, _, _, w = _whitened_svd(H, R)
    return (U / w[:, None]) @ (U.T * w[None, :])


def sensitivity_matrix(H: Jacobian, R: CovarianceModel | None = None) -> np.ndarray:
    """Residual sensitivity matrix S = I - K."""
    K = projection_matrix(H, R)
    return np.eye(K.shape[0]) - K


def _summarize(d: np.ndarray, n: int, rank: int) -> SensitivityReport:
    return SensitivityReport(
        diag_s=tuple(float(v) for v in d),
        min=float(d.min()),
        max=float(d.max()),
        sum=float(d.sum()),
        average=float(d.mean()),
        m=d.size,
        n=n,
        rank=rank,
    )


def diag_metrics(S: np.ndarray, n: int | None = None, rank: int | None = None) -> SensitivityReport:
    """Scalar summaries (min, max, sum, average) of diag(S).

    ``rank`` defaults to ``round(m - trace(S))``, exact for any S built from
    a projection; ``n`` defaults to that rank, which matches every
    full-column-rank pipeline in this package.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    d = np.diag(S)
    if rank is None:
        rank = int(round(d.size - d.sum()))
    if n is None:
        n = rank
    return _summarize(d, n, rank)


def sensitivity_report(
    case: NetworkCase,
    placement: PmuPlacement,
    scope: StateScope = StateScope.PMU,
    sigma_v: float = 1.0,
    sigma_i: float = 1.0,
    dedupe: str = "by-branch",
    flat_branch_model: bool = False,
) -> SensitivityReport:
    """Full pipeline convenience: placement in, SensitivityReport out.

    ``sigma_v``, ``sigma_i`` and ``flat_branch_model`` move the entries of
    diag(S) but not its average, which equals
    :func:`~pmuplan.estimation.placement_metric`. Runs one whitened SVD and
    reads diag(S) from its left singular block, ``s_ii = 1 - ||u_i||^2``
    (the diagonal of K is invariant to the diagonal whitening), without
    forming the m x m matrix.
    """
    mset = enumerate_channels(case, placement, dedupe=dedupe)
    H = build_jacobian(case, mset, scope=scope, flat_branch_model=flat_branch_model)
    R = CovarianceModel.for_channels(mset, sigma_v=sigma_v, sigma_i=sigma_i)
    U = _whitened_svd(H, R)[0]
    return _summarize(1.0 - np.einsum("ij,ij->i", U, U), n=H.n, rank=H.n)
