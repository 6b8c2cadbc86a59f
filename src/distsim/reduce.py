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
the input is never transposed, and the result is the scores of every
component, of which the retained count are the leading columns.

Inputs are array-likes, each judged once by one rule (2-D, nonempty, every
entry finite); results are plain ndarrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import DegenerateData, DimensionMismatch, DomainError, InvalidDistribution

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
    ``0 < eps < 1``; an ``eps`` so small that the bound is not a finite
    float raises :class:`DomainError`.
    """
    if n < 2:
        raise DomainError(f"need at least 2 points, got {n}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon!r}")
    denom = epsilon ** 2 / 2.0 - epsilon ** 3 / 3.0
    bound = 4.0 * math.log(n) / denom if denom > 0.0 else math.inf
    if not math.isfinite(bound):
        raise DomainError(f"epsilon {epsilon!r} is too small: the bound leaves the float range")
    return int(math.ceil(bound))


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


def _points(data) -> np.ndarray:
    """``data`` as a float array of row-points: 2-D, nonempty, all finite."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch("points must form a 2-D array (rows = points)")
    if arr.size == 0:
        raise InvalidDistribution("matrix must have at least one row and one column")
    if not np.isfinite(arr).all():
        raise InvalidDistribution("all entries must be finite")
    return arr


def jl_project(data, k: int, seed: int = 0) -> np.ndarray:
    """Project row-points into ``k`` dimensions with a seeded Gaussian map.

    ``data`` is a 2-D array-like of finite values (rows are points, columns
    coordinates); the result is the ``(n_points, k)`` array of projections.
    Deterministic for a fixed seed. A projection that overflows the float
    range raises :class:`DegenerateData`.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    points = _points(data)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    with np.errstate(over="ignore", invalid="ignore"):
        projected = points @ (rng.standard_normal((points.shape[1], k)) / math.sqrt(k))
    if not np.isfinite(projected).all():
        raise DegenerateData("the projection overflows the float range")
    return projected


def jl_distortion_report(original, projected, epsilon: float) -> DistortionReport:
    """Exact pairwise squared-distance ratios ``proj/orig`` and the fraction
    landing inside ``[1 - eps, 1 + eps]``.

    Coincident original points (zero distance) are excluded from the ratio
    statistics; a zero maps to a zero under any linear projection. Both sets
    are divided by one power of two near their largest magnitude, so the
    ratios keep their bits and stay finite in any units.
    """
    a, b = _points(original), _points(projected)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch("point counts differ")
    if a.shape[0] < 2:
        raise DomainError("need at least two points")
    if not 0.0 < epsilon:
        raise DomainError("epsilon must be positive")

    exponent = np.frexp(max(np.abs(a).max(), np.abs(b).max()))[1]
    sq_orig = pdist(np.ldexp(a, -exponent), "sqeuclidean")
    sq_proj = pdist(np.ldexp(b, -exponent), "sqeuclidean")
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


def pca_reduce(data, *, significant_digits: int) -> tuple[np.ndarray, int]:
    """Principal-component scores with the increment-rounding retention rule.

    Data is a 2-D array-like of finite values, centered, never rescaled.
    Returns the ``(n_obs, N)`` scores of every component (``N = min(n_obs,
    n_vars)`` columns, ordered by nonincreasing variance, rows kept as the
    input's) and the retained count:
    ``1 +`` the number of successive cumulative-variance increments that stay
    positive after rounding to ``significant_digits`` digits. Keeping ``c``
    components keeps the first ``c`` columns. Data whose centring or
    component variances overflow the float range raise :class:`DegenerateData`.
    """
    if significant_digits < 1:
        raise DomainError("significant_digits must be >= 1")

    points = _points(data)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = points - points.mean(axis=0)
        if not np.isfinite(centered).all():
            raise DegenerateData("centring the data overflows the float range")
        u_mat, svals, _ = np.linalg.svd(centered, full_matrices=False)
        variances = (svals ** 2) / max(points.shape[0] - 1, 1)
        total = float(variances.sum())
    if not math.isfinite(total):
        raise DegenerateData("component variances overflow the float range")
    if total <= 0.0:
        raise DegenerateData("no variance in any column")

    cumulative = np.cumsum(variances / total)
    increments = np.round(np.diff(cumulative), significant_digits)
    retained = int(np.sum(increments > 0)) + 1
    return u_mat * svals, retained
