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
counting and takes neither the noise levels nor the branch model; the
Jacobian and SVD pipeline below, which takes both, serves the per-channel
``metrics`` report (:func:`sensitivity_report`) and the tests that pin the
count against it. Only that
pipeline imports numpy, inside its functions: the counting score, and the
planners and audit that call it, are pure Python and never load it.

The score is not monotone in the placement. In pmu-state scope, adding bus
s lowers it only when the branches it newly meters, d(s|Q), number fewer
than br(Q)/|Q|; in full-state scope every added bus raises it, since m
grows with each new voltage phasor and newly metered branch while 2N stays
fixed.

The planners score placements that differ from a known one by a bus or a
few. The set function :func:`metric_function` returns therefore carries an
incremental scorer wherever every bus of the case can host a PMU: it ORs a
base's masks out of :attr:`~pmuplan.network.NetworkCase.incidence` once,
and each call ORs the buses a stage or prefix adds once, then scores a
batch of candidate buses at one OR and one popcount each. Where some bus
cannot host, there is no scorer and the planners call the set function.
The audit always calls the set function, keeping its values in the score
table f carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable

from .measurements import (
    DEFAULT_CHANNEL_LIMIT,
    METERED_COLUMN,
    ChannelKind,
    MeasurementSet,
    PmuPlacement,
    _busiest_over_limit,
    enumerate_channels,
    metered_mask,
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
        if not (0.0 < sigma_v < math.inf and 0.0 < sigma_i < math.inf):
            raise ValueError("standard deviations must be finite and strictly positive")
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
    import numpy as np

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
    import numpy as np

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
    dedupe: str = "by-branch",
) -> float:
    """Average of diag(S) for the placement's induced channels; lower is better.

    The average is the structural count ``(m - n) / m`` (see the module
    docstring): ``m`` is the channel count, ``n`` the state dimension, 2|Q|
    in pmu-state scope and 2N in full-state scope. It is computed as one
    exact integer division, so the result is the correctly rounded
    rational; no channel list, Jacobian or SVD is built. The noise levels
    and the branch model cannot move it, so it takes neither;
    :func:`sensitivity_report` does.

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
    metered = metered_mask(case, placement, dedupe).bit_count()
    unobserved = None
    if scope == StateScope.FULL:
        unobserved = [len(observability_check(case, placement)[1])]
    (value,), errors = _counted_scores(case, scope, len(placement.buses), [metered], unobserved)
    if errors:
        raise errors[0]
    return value


def _counted_scores(
    case: NetworkCase,
    scope: StateScope,
    k: int,
    metered: list[int],
    unobserved: list[int] | None,
) -> tuple[list[float | None], dict[int, Exception]]:
    """placement_metric's count for placements of ``k`` PMUs, one per entry
    of ``metered``, the placement's metered branches (branch ends); in
    full-state scope ``unobserved`` holds the matching numbers of
    unobserved buses, and in pmu-state scope it is None.

    Returns the values, None where placement_metric raises, and the
    exceptions it raises there, by entry.
    """
    n = 2 * len(case.buses) if scope == StateScope.FULL else 2 * k
    channels = [2 * k + 2 * count for count in metered]
    values = [(m - n) / m if m else None for m in channels]
    errors: dict[int, Exception] = {}
    if None in values or unobserved and any(unobserved):
        for i, m in enumerate(channels):
            if m == 0:
                errors[i] = ValueError("measurement set is empty")
            elif unobserved and unobserved[i]:
                errors[i] = UnobservableStateError(n - m if m < n else 2 * unobserved[i])
                values[i] = None
    return values, errors


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
    f keeps nothing itself.

    Its ``__dict__``, which a ``functools.wraps`` wrapper copies (so one
    that changes f's values must not), holds the score table ``scores``
    that :func:`~pmuplan.submodularity.audit` shares across audits of
    ``case``, keyed by masks of its position bits, and the planners'
    incremental ``scorer``. The scorer is None unless every bus of the case
    can host a PMU: the dedupe policy is valid, the channel limit is at
    least 1 and no bus has more incident branches than the limit. Otherwise
    the planners call f on every candidate, and f raises as it should.
    ``scorer(base)`` returns ``score(added, candidates)``: the list of f's
    values on ``base`` plus the buses ``added`` plus each bus of
    ``candidates`` in turn (all buses of the case, none listed twice across
    the three), counted from each bus's row of
    :attr:`~pmuplan.network.NetworkCase.incidence` (``closed_mask`` and the
    column ``METERED_COLUMN[dedupe]``), with None where the placement is
    unobservable in full-state scope, and f raises. A call ORs ``added``
    onto the base's union once, then costs one OR and one popcount per
    candidate.
    """
    limit = DEFAULT_CHANNEL_LIMIT if channel_limit is None else channel_limit

    def f(buses) -> float:
        value = placement_metric(case, PmuPlacement.of(buses, channel_limit=limit),
                                 scope=scope, dedupe=dedupe)
        return -value if gain else value

    f.scores, f.case, f.scorer = {}, case, None
    index = case.incidence
    column = METERED_COLUMN.get(dedupe)
    if column is None or limit < 1 or _busiest_over_limit(case, limit) is not None:
        return f
    full = scope == StateScope.FULL
    everyone = (1 << len(index)) - 1

    def scorer(base: Iterable[int]) -> Callable[[Iterable[int], list[int]], list]:
        base = tuple(base)
        union = observed = 0
        for bus in base:
            row = index[bus]
            union |= row[column]
            observed |= row[3]

        def score(added: Iterable[int], candidates: list[int]) -> list[float | None]:
            u, o, k = union, observed, len(base) + 1
            for bus in added:
                row = index[bus]
                u |= row[column]
                o |= row[3]
                k += 1
            rows = [index[bus] for bus in candidates]
            metered = [(u | row[column]).bit_count() for row in rows]
            unobserved = None
            if full:
                unobserved = [(everyone ^ (o | row[3])).bit_count() for row in rows]
            values = _counted_scores(case, scope, k, metered, unobserved)[0]
            if gain:
                values = [None if value is None else -value for value in values]
            return values

        return score

    f.scorer = scorer
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

    ``sigma_v``, ``sigma_i`` and ``flat_branch_model`` move the entries of
    diag(S) but not its average, which equals :func:`placement_metric`.
    Runs one whitened SVD and reads diag(S) from its left singular block,
    ``s_ii = 1 - ||u_i||^2`` (the diagonal of K is invariant to the diagonal
    whitening), without forming the m x m matrix.
    """
    import numpy as np

    mset = enumerate_channels(case, placement, dedupe=dedupe)
    H = build_jacobian(case, mset, scope=scope, flat_branch_model=flat_branch_model)
    R = CovarianceModel.for_channels(mset, sigma_v=sigma_v, sigma_i=sigma_i)
    U = _whitened_svd(H, R)[0]
    return _summarize(1.0 - np.einsum("ij,ij->i", U, U), n=H.n, rank=H.n)
