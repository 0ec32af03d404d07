"""Rectangular phasor-only WLS estimation and residual-sensitivity metrics.

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
counting; the Jacobian and SVD pipeline below serves the per-channel
``metrics`` report and the tests that pin the count against it. Only that
pipeline imports numpy, inside its functions: the counting score, and the
planners and audit that call it, are pure Python and never load it.

The score is not monotone in the placement. In pmu-state scope, adding bus
s lowers it only when the branches it newly meters, d(s|Q), number fewer
than br(Q)/|Q|; in full-state scope every added bus raises it, since m
grows with each new voltage phasor and newly metered branch while 2N stays
fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .measurements import (
    DEFAULT_CHANNEL_LIMIT,
    ChannelKind,
    MeasurementSet,
    PmuPlacement,
    channel_count,
    enumerate_channels,
    observability_check,
)
from .network import NetworkCase, metered_admittances

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "StateScope",
    "UnobservableStateError",
    "Jacobian",
    "CovarianceModel",
    "SensitivityReport",
    "build_jacobian",
    "wls_estimate",
    "projection_matrix",
    "sensitivity_matrix",
    "diag_metrics",
    "placement_metric",
    "sensitivity_report",
    "metric_function",
]

# singular values below RANK_RTOL * sigma_max count as zero
RANK_RTOL = 1e-10


class StateScope(str, Enum):
    FULL = "full-state"
    PMU = "pmu-state"


class UnobservableStateError(ValueError):
    """The gain matrix H'R^-1H is numerically singular."""

    def __init__(self, null_dimension: int):
        self.null_dimension = null_dimension
        super().__init__(
            f"state not observable from the given channels: gain matrix has a "
            f"null space of dimension {null_dimension}"
        )


@dataclass(frozen=True)
class Jacobian:
    """Dense measurement Jacobian with row and column labels.

    Columns are (bus, coordinate) pairs in case bus order, Vr before Vx per
    bus. Rows follow the canonical channel ordering of the measurement set.
    """

    matrix: np.ndarray
    rows: tuple  # MeasurementChannel per row
    cols: tuple[tuple[int, str], ...]

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def _check_sigmas(sigma_v: float, sigma_i: float) -> None:
    if not (0.0 < sigma_v < math.inf and 0.0 < sigma_i < math.inf):
        raise ValueError("standard deviations must be finite and strictly positive")


@dataclass(frozen=True)
class CovarianceModel:
    """Diagonal measurement covariance (per-channel variances)."""

    variances: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(v <= 0.0 for v in self.variances):
            raise ValueError("all variances must be strictly positive")

    @classmethod
    def unit(cls, m: int) -> "CovarianceModel":
        return cls(variances=(1.0,) * m)

    @classmethod
    def for_channels(
        cls, mset: MeasurementSet, sigma_v: float = 1.0, sigma_i: float = 1.0
    ) -> "CovarianceModel":
        """Per-kind standard deviations expanded to a per-channel diagonal."""
        _check_sigmas(sigma_v, sigma_i)
        out = []
        for ch in mset.channels:
            sigma = sigma_v if ch.kind in (ChannelKind.VR, ChannelKind.VX) else sigma_i
            out.append(sigma * sigma)
        return cls(variances=tuple(out))

    def as_array(self) -> np.ndarray:
        import numpy as np

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
    import numpy as np

    if not mset.channels:
        raise ValueError("measurement set is empty")
    if scope == StateScope.FULL:
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


def _whitened_svd(H: Jacobian | np.ndarray, R: CovarianceModel | None):
    """SVD of R^-1/2 H with the rank rule applied.

    Returns ``(U, s, Vt, w, rank)`` where ``w`` is the per-row whitening
    vector diag(R^-1/2).
    """
    import numpy as np

    mat = H.matrix if isinstance(H, Jacobian) else np.asarray(H, dtype=float)
    m = mat.shape[0]
    if R is None:
        w = np.ones(m)
    else:
        var = R.as_array()
        if var.shape != (m,):
            raise ValueError(f"covariance has {var.shape[0]} entries for {m} channels")
        w = 1.0 / np.sqrt(var)
    U, s, Vt = np.linalg.svd(w[:, None] * mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    return U, s, Vt, w, rank


def wls_estimate(H: Jacobian, R: CovarianceModel | None, dz: np.ndarray) -> np.ndarray:
    """Weighted-least-squares state update (H' R^-1 H)^-1 H' R^-1 dz.

    Raises
    ------
    UnobservableStateError
        When the gain matrix is rank deficient under the singular-value
        threshold, reporting the null-space dimension.
    """
    import numpy as np

    dz = np.asarray(dz, dtype=float)
    if dz.shape != (H.m,):
        raise ValueError(f"dz has shape {dz.shape}, expected ({H.m},)")
    if H.m < H.n:
        raise UnobservableStateError(H.n - H.m)
    U, s, Vt, w, rank = _whitened_svd(H, R)
    if rank < H.n:
        raise UnobservableStateError(H.n - rank)
    return Vt.T @ ((U.T @ (w * dz)) / s)


def projection_matrix(H: Jacobian, R: CovarianceModel | None = None) -> np.ndarray:
    """Hat matrix K = H (H' R^-1 H)^-1 H' R^-1, computed via the whitened SVD.

    With W = diag(R^-1/2) and U the left singular block of W H,
    K = W^-1 U U' W, which is numerically stable and makes the projection
    identities (idempotency, trace = rank) hold to machine precision.
    """
    if H.m < H.n:
        raise UnobservableStateError(H.n - H.m)
    U, _, _, w, rank = _whitened_svd(H, R)
    if rank < H.n:
        raise UnobservableStateError(H.n - rank)
    return (U / w[:, None]) @ (U.T * w[None, :])


def sensitivity_matrix(H: Jacobian, R: CovarianceModel | None = None) -> np.ndarray:
    """Residual sensitivity matrix S = I - K."""
    import numpy as np

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
    import numpy as np

    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    d = np.diag(S)
    if rank is None:
        rank = int(round(d.size - d.sum()))
    if n is None:
        n = rank
    return _summarize(d, n, rank)


def placement_metric(
    case: NetworkCase,
    placement: PmuPlacement,
    scope: StateScope = StateScope.PMU,
    sigma_v: float = 1.0,
    sigma_i: float = 1.0,
    dedupe: str = "by-branch",
    flat_branch_model: bool = False,
) -> float:
    """Average of diag(S) for the placement's induced channels; lower is better.

    The average is the structural count ``(m - n) / m`` (see the module
    docstring): ``m`` is the channel count, ``n`` the state dimension, 2|Q|
    in pmu-state scope and 2N in full-state scope. It is computed as one
    exact integer division, so the result is the correctly rounded
    rational; no channel list, Jacobian or SVD is built. ``sigma_v``,
    ``sigma_i`` and ``flat_branch_model`` are validated but cannot move the
    value.

    Raises
    ------
    KeyError
        A placement bus is not in the case.
    ChannelLimitError
        A placement bus has more incident branches than the channel limit.
    ValueError
        Unknown dedupe policy, empty placement, or a sigma that is not
        finite and positive.
    UnobservableStateError
        Full-state scope and some bus neither hosts a PMU nor neighbors
        one. The null dimension is ``n - m`` when there are fewer channels
        than states, else twice the number of unobserved buses.
    """
    m = channel_count(case, placement, dedupe=dedupe)
    if m == 0:
        raise ValueError("measurement set is empty")
    _check_sigmas(sigma_v, sigma_i)
    if scope == StateScope.FULL:
        n = 2 * len(case.buses)
        observable, unobserved = observability_check(case, placement)
        if not observable:
            raise UnobservableStateError(n - m if m < n else 2 * len(unobserved))
    else:
        n = 2 * len(placement)
    return (m - n) / m


def metric_function(
    case: NetworkCase,
    scope: StateScope = StateScope.PMU,
    sigma_v: float = 1.0,
    sigma_i: float = 1.0,
    dedupe: str = "by-branch",
    flat_branch_model: bool = False,
    channel_limit: int | None = None,
    gain: bool = False,
    memoize: bool = True,
):
    """Bind placement_metric into a set function f(frozenset of buses) -> float.

    Planners and the submodularity auditor inject metrics in this shape.
    ``gain=True`` returns the negated average, turning the minimize-sense
    accuracy score into the improvement function that grows as placements
    get richer; audits of diminishing returns run on that orientation.
    Evaluations are cached per bus set when ``memoize`` is on.
    """
    limit = DEFAULT_CHANNEL_LIMIT if channel_limit is None else channel_limit
    cache: dict[frozenset, float] | None = {} if memoize else None

    def f(buses) -> float:
        key = frozenset(buses)
        if cache is not None and key in cache:
            return cache[key]
        placement = PmuPlacement.of(key, channel_limit=limit)
        value = placement_metric(
            case,
            placement,
            scope=scope,
            sigma_v=sigma_v,
            sigma_i=sigma_i,
            dedupe=dedupe,
            flat_branch_model=flat_branch_model,
        )
        if gain:
            value = -value
        if cache is not None:
            cache[key] = value
        return value

    return f


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

    Runs one whitened SVD and reads diag(S) from its left singular block,
    ``s_ii = 1 - ||u_i||^2`` (the diagonal of K is invariant to the diagonal
    whitening), without forming the m x m matrix.
    """
    import numpy as np

    mset = enumerate_channels(case, placement, dedupe=dedupe)
    H = build_jacobian(case, mset, scope=scope, flat_branch_model=flat_branch_model)
    R = CovarianceModel.for_channels(mset, sigma_v=sigma_v, sigma_i=sigma_i)
    if H.m < H.n:
        raise UnobservableStateError(H.n - H.m)
    U, _, _, _, rank = _whitened_svd(H, R)
    if rank < H.n:
        raise UnobservableStateError(H.n - rank)
    return _summarize(1.0 - np.einsum("ij,ij->i", U, U), n=H.n, rank=rank)
