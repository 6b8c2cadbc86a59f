"""Dimension reduction: Gaussian random projection and PCA retention.

The random-projection path follows the classic embedding guarantee: any
``n`` points can be mapped to ``k >= 4 (eps^2/2 - eps^3/3)^-1 ln n``
dimensions while distorting pairwise squared distances by at most a factor
``1 +- eps``. The map is ``x -> A x / sqrt(k)`` with i.i.d. standard normal
entries in ``A`` (equivalently: entries drawn from ``N(0, 1/k)`` with no
extra rescaling; the two conventions coincide and are NOT composed).

The PCA path reproduces a specific retention procedure: principal
components of the centered data (no rescaling), keeping ``1 +`` the number
of successive cumulative-variance increments that stay positive after
rounding to a given number of digits. Rows are observations and stay so:
the input is never transposed, and it is reconstructed back into the
original coordinates when a truncated basis is not wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .core import SampleMatrix
from .errors import DegenerateData, DimensionMismatch, DomainError

__all__ = [
    "DistortionReport",
    "jl_min_dimension",
    "jl_project",
    "jl_distortion_report",
    "pca_reduce",
]


def jl_min_dimension(n: int, epsilon: float) -> int:
    """Smallest embedding dimension honoring the distortion guarantee.

    ``ceil(4 ln n / (eps^2/2 - eps^3/3))`` for ``n >= 2`` points and
    ``0 < eps < 1``.
    """
    if n < 2:
        raise DomainError(f"need at least 2 points, got {n}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon!r}")
    denom = epsilon ** 2 / 2.0 - epsilon ** 3 / 3.0
    return int(math.ceil(4.0 * math.log(n) / denom))


@dataclass(frozen=True)
class DistortionReport:
    """Pairwise squared-distance ratios of a projection versus the original."""

    pair_count: int
    min_ratio: float
    max_ratio: float
    mean_ratio: float
    fraction_within: float

    def __post_init__(self):
        if not 0.0 <= self.fraction_within <= 1.0:
            raise DomainError("fraction_within must be in [0, 1]")


def _as_points(data) -> tuple[np.ndarray, bool]:
    if isinstance(data, SampleMatrix):
        return np.asarray(data.values, dtype=float), True
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch("points must form a 2-D array (rows = points)")
    return arr, False


def jl_project(data, k: int, seed: int = 0):
    """Project row-points into ``k`` dimensions with a seeded Gaussian map.

    Accepts a :class:`SampleMatrix` or a plain 2-D array (rows are points,
    columns coordinates) and returns the same kind. Deterministic for a
    fixed seed.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    points, wrap = _as_points(data)
    d = points.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gauss = rng.standard_normal((d, k))
    projected = points @ (gauss / math.sqrt(k))
    if wrap:
        return SampleMatrix(projected, tuple(f"jl{i}" for i in range(k)))
    return projected


def jl_distortion_report(original, projected, epsilon: float) -> DistortionReport:
    """Exact pairwise squared-distance ratios ``proj/orig`` and the fraction
    landing inside ``[1 - eps, 1 + eps]``.

    Coincident original points (zero distance) are excluded from the ratio
    statistics; a zero maps to a zero under any linear projection.
    """
    a, _ = _as_points(original)
    b, _ = _as_points(projected)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch("point counts differ")
    if a.shape[0] < 2:
        raise DomainError("need at least two points")
    if not 0.0 < epsilon:
        raise DomainError("epsilon must be positive")

    sq_orig = pdist(a, "sqeuclidean")
    sq_proj = pdist(b, "sqeuclidean")
    nonzero = sq_orig > 0
    ratios = sq_proj[nonzero] / sq_orig[nonzero]
    if ratios.size == 0:
        raise DegenerateData("all original points coincide")
    within = np.mean((ratios >= 1.0 - epsilon) & (ratios <= 1.0 + epsilon))
    return DistortionReport(
        pair_count=int(ratios.size),
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        mean_ratio=float(ratios.mean()),
        fraction_within=float(within),
    )


def pca_reduce(data, *, significant_digits: int | None = None,
               component_count: int | None = None,
               return_truncated: bool = False) -> tuple[SampleMatrix, int]:
    """Principal-component reduction with the increment-rounding retention rule.

    Exactly one of ``significant_digits`` (retention decided by rounding the
    successive cumulative-variance increments to that many digits) or
    ``component_count`` must be given. Data is centered, never rescaled.

    With ``return_truncated`` the retained score columns come back (ordered
    by nonincreasing variance); otherwise the retained components are
    rotated back and the center re-added, giving a matrix of the original
    shape. Either way the result keeps the input's rows. Data whose
    component variances overflow the float range raise
    :class:`DegenerateData`.

    Returns the reduced :class:`SampleMatrix` and the retained count.
    """
    if (significant_digits is None) == (component_count is None):
        raise DomainError("give exactly one of significant_digits / component_count")
    if significant_digits is not None and significant_digits < 1:
        raise DomainError("significant_digits must be >= 1")
    if component_count is not None and component_count < 1:
        raise DomainError("component_count must be >= 1")

    points, _ = _as_points(data)
    n_obs, n_vars = points.shape
    center = points.mean(axis=0)
    centered = points - center
    u_mat, svals, vt = np.linalg.svd(centered, full_matrices=False)
    denom = max(n_obs - 1, 1)
    with np.errstate(over="ignore"):
        variances = (svals ** 2) / denom
        total = float(variances.sum())
    if not math.isfinite(total):
        raise DegenerateData("component variances overflow the float range")
    if total <= 0.0:
        raise DegenerateData("no variance in any column")

    if component_count is not None:
        retained = min(component_count, n_vars, svals.size)
    else:
        cumulative = np.cumsum(variances / total)
        increments = np.round(np.diff(cumulative), significant_digits)
        retained = int(np.sum(increments > 0)) + 1

    scores = u_mat * svals
    if return_truncated:
        out = scores[:, :retained]
        labels = tuple(f"pc{i + 1}" for i in range(retained))
    else:
        out = scores[:, :retained] @ vt[:retained] + center
        labels = ()
    return SampleMatrix(out, labels), retained
