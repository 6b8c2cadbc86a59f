"""Density approximation tools.

Two families live here:

* The scale-mixture density of ``U = X * exp(Y)`` with ``X ~ N(0, 1/k)``
  independent of ``Y ~ N(mu_Y, sigma_Y^2)`` -- the law of one coordinate of
  log-normal data pushed through a Gaussian random projection -- and the
  numeric convolution of several such coordinates into the density of their
  sum. The density is

      f(u) = sqrt(k) / (2 pi sigma_Y) *
             integral exp(-y - k u^2 / (2 e^(2y)) - (y - mu_Y)^2 / (2 sigma_Y^2)) dy

  which degenerates to the plain ``N(0, 1/k)`` density at ``sigma_Y = 0``.
  :func:`nln_density` takes a scalar or an array ``u`` and evaluates every
  point in one vector-valued adaptive integral, so a grid costs one
  integral per component. Every integral here is an
  :func:`~distsim.quadrature.integrate_1d` call at its fixed tolerances.

* Discrete approximations that match the first ``2N - 1`` raw moments of a
  target density with ``N`` node/weight pairs, built by turning the moment
  sequence into orthogonal-polynomial recurrence coefficients (Hankel
  Cholesky) and solving the symmetric tridiagonal eigenproblem (Golub &
  Welsch 1969), for one moment row per column in one stacked eigensolve. A
  sequence that nodes and weights cannot reproduce to 1e-8 raises
  :class:`~distsim.errors.NonConvergence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import wrightomega

from .core import DiscreteDist, _freeze
from .errors import (
    DegenerateData,
    DensityOverflow,
    DomainError,
    GridTooCoarse,
    InvalidDistribution,
    MomentMatrixNotPD,
    NonConvergence,
)
from .quadrature import _on_arrays, integrate_1d

__all__ = [
    "NLNComponent",
    "GridDensity",
    "DiscreteApprox",
    "nln_density",
    "nln_sum_density",
    "moment_match",
]

#: integration range for the mixing variable about its peak, in its own sd.
_MIX_RANGE_SIGMAS = 10.0
#: natural log of the largest float.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
#: default grid resolution and half-span (in combined standard deviations).
DEFAULT_GRID_POINTS = 4096
DEFAULT_GRID_SPAN = 12.0
#: probability mass a grid density may lose or gain (numeric convolutions included).
GRID_MASS_TOL = 1e-4


@dataclass(frozen=True)
class NLNComponent:
    """One projected coordinate: ``X * exp(Y)`` with ``X ~ N(0, 1/k)``."""

    k: int
    mu_y: float
    sigma_y: float

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be >= 1")
        if self.sigma_y < 0:
            raise DomainError("sigma_y must be >= 0")

    @property
    def variance(self) -> float:
        """``Var(X e^Y) = E[e^(2Y)] / k``; :class:`DensityOverflow` past the float range."""
        try:
            return math.exp(2.0 * self.mu_y + 2.0 * self.sigma_y ** 2) / self.k
        except OverflowError:
            raise DensityOverflow(f"the variance of {self} exceeds the float range") from None


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Density sampled on an equally spaced grid.

    Its trapezoid mass must lie within :data:`GRID_MASS_TOL` of 1, otherwise
    :class:`GridTooCoarse` is raised.
    """

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or x.size < 2:
            raise InvalidDistribution("x and values must be matching 1-D arrays")
        steps = np.diff(x)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise InvalidDistribution("grid must be equally spaced")
        if np.any(v < 0):
            raise InvalidDistribution("density values must be >= 0")
        mass = float(np.trapezoid(v, x))
        if abs(mass - 1.0) > GRID_MASS_TOL:
            raise GridTooCoarse(f"grid retains mass {mass!r}, more than {GRID_MASS_TOL} "
                                "from 1; widen the span or refine the grid")
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "values", _freeze(v))

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.x))

    def to_csv(self, path) -> None:
        """Two-column CSV (abscissa, density) for external plotting."""
        np.savetxt(path, np.column_stack([self.x, self.values]),
                   delimiter=",", header="x,density", comments="")


def nln_density(u, comp: NLNComponent):
    """Density of ``X exp(Y)`` at ``u``, a scalar or an array; even in ``u``.

    Returns a float for a scalar ``u`` and an array of ``u``'s shape
    otherwise. Where ``sigma_y^2`` is zero or below the smallest normal
    float, ``Y`` is the constant ``mu_y`` and the exact ``N(0, e^(2 mu_y) /
    k)`` density is returned. Otherwise the mixing integral runs over ``+-10
    sigma_y`` about each entry's own peak (tail mass below 8e-24), for every
    entry of ``u`` at once, as one :func:`~distsim.quadrature.integrate_1d`
    call. Each entry's integrand is divided by its peak, so every entry is
    held to the same relative tolerance, deep tails included. NaN raises
    :class:`DomainError`; ``+-inf`` gives 0. The density peaks at ``u = 0``
    at ``sqrt(k / 2 pi) exp(sigma_y^2 / 2 - mu_y)``; a component for which
    that value or its exponential factor exceeds the float range (``sigma_y``
    above about 37.7 at ``mu_y = 0``) raises :class:`DensityOverflow`.
    """
    arr = np.asarray(u, dtype=float)
    if np.isnan(arr).any():
        raise DomainError("u must not be NaN")
    k, mu, s2 = comp.k, comp.mu_y, comp.sigma_y * comp.sigma_y
    # exp(-mu_y - rise) and the density are largest at u = 0: one check covers all u
    if 0.5 * s2 - mu + max(0.0, 0.5 * math.log(k / (2.0 * math.pi))) > _LOG_FLOAT_MAX:
        raise DensityOverflow(f"the density of {comp} at u = 0 exceeds the float range")
    # |u| = inf becomes the largest float, where the density underflows to 0
    mags = np.minimum(np.abs(arr), np.finfo(float).max).ravel()
    if s2 < np.finfo(float).tiny:  # X e^mu_y has density e^-mu_y f_X(u e^-mu_y)
        z, var = mags * math.exp(-mu), 1.0 / k
        out = math.exp(-mu) * (np.exp(-0.5 * z * z / var) / math.sqrt(2.0 * math.pi * var))
    else:
        out = _mixture_integral(mags, comp)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _mixture_integral(mags: np.ndarray, comp: NLNComponent) -> np.ndarray:
    """:func:`nln_density` at finite ``mags >= 0`` where ``sigma_y^2`` is a normal float.

    With ``y = mu_y + sigma_y x`` the exponent of the mixing integrand is
    ``phi = -y - exp(lw - 2 sigma_y x) - x^2 / 2``, where
    ``lw = ln(k u^2 / 2) - 2 mu_y``. Its peak lies where ``z = k u^2 e^(-2y)``
    equals ``1 + (y - mu_y) / sigma_y^2``: there ``2 sigma_y^2 z`` is the
    Wright omega function of ``lw + ln(4 sigma_y^2) + 2 sigma_y^2``, and
    ``x = sigma_y (z - 1) + v``. Each entry is integrated over ``v`` as
    ``exp(phi - phi_peak) = exp(-v^2/2 - (z/2) (expm1(-2 sigma_y v) + 2 sigma_y v))``,
    whose peak is 1 and whose exponent has curvature at least 1.
    """
    k, mu, sig = comp.k, comp.mu_y, comp.sigma_y
    s2 = sig * sig
    with np.errstate(divide="ignore"):  # ln(0) = -inf at u = 0, where omega is 0
        lw = 2.0 * np.log(mags) + (math.log(0.5 * k) - 2.0 * mu)
    omega = wrightomega(lw + (math.log(4.0 * s2) + 2.0 * s2))
    d = omega / (2.0 * s2) - 1.0  # z - 1
    rise = 0.5 + d * ((s2 + 0.5) + (0.5 * s2) * d)  # -mu_y - phi_peak

    def scaled(v: np.ndarray) -> np.ndarray:
        v = v[:, None]
        with np.errstate(over="ignore"):  # past sigma_y = 35; capped, 0 * bend is 0 at u = 0
            bend = np.minimum(np.expm1(-2.0 * sig * v) + 2.0 * sig * v, np.finfo(float).max)
            return np.exp(-0.5 * v * v - (omega / (4.0 * s2)) * bend)

    integral = integrate_1d(scaled, -_MIX_RANGE_SIGMAS, _MIX_RANGE_SIGMAS).value
    return (math.sqrt(k) / (2.0 * math.pi)) * np.exp(-mu - rise) * integral


def nln_sum_density(comps: list[NLNComponent],
                    n_points: int = DEFAULT_GRID_POINTS,
                    span_sigmas: float = DEFAULT_GRID_SPAN) -> GridDensity:
    """Density of the sum of independent mixture coordinates on a grid.

    Each component is sampled on a common grid spanning ``span_sigmas``
    combined standard deviations and the sum density is built by pairwise
    discrete convolution. Raises :class:`GridTooCoarse` when more than
    :data:`GRID_MASS_TOL` of probability mass is lost to the grid, and
    :class:`DensityOverflow` when a variance or the grid's span exceeds the
    float range.
    """
    if not comps:
        raise DomainError("need at least one component")
    if n_points < 16:
        raise DomainError("n_points must be >= 16")
    combined_sd = math.sqrt(sum(c.variance for c in comps))
    width = 2.0 * span_sigmas * combined_sd
    if not math.isfinite(width):
        raise DensityOverflow(f"a grid of {span_sigmas} combined sd exceeds the float range")
    center = n_points // 2
    h = width / (n_points - 1)
    offsets = np.arange(n_points) - center
    xs = offsets * h
    # each density is even: take it once per |x| and index it back onto the grid
    mags, at = np.arange(center + 1) * h, np.abs(offsets)

    dens = nln_density(mags, comps[0])[at]
    for comp in comps[1:]:
        nxt = nln_density(mags, comp)[at]
        dens = np.convolve(dens, nxt)[center:center + n_points] * h
    return GridDensity(xs, np.maximum(dens, 0.0))


@dataclass(frozen=True, eq=False)
class DiscreteApprox:
    """Node/weight pairs of a moment-matched discrete distribution."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size < 1:
            raise InvalidDistribution("nodes and weights must be matching 1-D arrays")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidDistribution("nodes must be strictly increasing")
        if np.any(weights < 0):
            raise InvalidDistribution("weights must be >= 0")
        if abs(float(weights.sum()) - 1.0) > 1e-10:
            raise InvalidDistribution("weights must sum to 1 within 1e-10")
        object.__setattr__(self, "nodes", _freeze(nodes))
        object.__setattr__(self, "weights", _freeze(weights))

    def moment(self, j: int) -> float:
        return float(self.weights @ self.nodes ** j)

    def as_discrete_dist(self) -> DiscreteDist:
        """Weights as a category distribution (nodes become category labels)."""
        return DiscreteDist(self.weights, tuple(repr(float(x)) for x in self.nodes))


def _moments_from_density(f, support, count: int) -> np.ndarray:
    """Raw moments ``m_0 .. m_{count-1}`` of ``f`` on ``support``, as one integral."""
    powers = np.arange(count)
    return integrate_1d(lambda x: x[:, None] ** powers * _on_arrays(f, x)[:, None],
                        *support).value


def _sample_moments(matrix: np.ndarray, count: int) -> np.ndarray:
    """Raw sample moments ``m_0 .. m_{count-1}``, one row per column of ``matrix``.

    Powers are running products, ``x^p = x^(p-1) x``: no element goes through ``pow``.
    Moments past the float range raise :class:`DegenerateData`.
    """
    cols = np.ascontiguousarray(np.asarray(matrix).T, dtype=float)
    moms, power = np.empty((cols.shape[0], count)), np.ones_like(cols)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(count):
            moms[:, p] = power.mean(axis=1)
            power = power * cols
    if not np.isfinite(moms).all():
        raise DegenerateData("raw moments overflow the float range")
    return moms


def _jacobi_from_moments(moms: np.ndarray, n: int) -> np.ndarray:
    """Jacobi matrices, ``(rows, n, n)``, of moment rows via partial Hankel Cholesky.

    Each row takes its own dot products. Uses exactly ``m_0 .. m_{2n-1}``; the (n, n)
    Hankel entry is never touched. A pivot at or below 1e-14 of its own Hankel diagonal
    entry (checked before its square root) means the sequence is not a valid
    moment sequence of a distribution with ``n`` or more support points;
    scaling each pivot by its own order keeps raw moments of large values
    (``m_7`` near 1e14) from masking order 0.
    """
    chol = np.zeros((moms.shape[0], n + 1, n + 1))
    for j in range(n + 1):
        for i in range(min(j + 1, n)):
            s = moms[:, i + j] - (chol[:, None, :i, i] @ chol[:, :i, j, None])[:, 0, 0]
            if i < j:
                chol[:, i, j] = s / chol[:, i, i]
                continue
            refused = np.flatnonzero(s <= np.abs(moms[:, 2 * i]) * 1e-14)
            if refused.size:
                raise MomentMatrixNotPD(f"moment row {refused[0]}: Hankel matrix is not "
                                        f"positive definite at order {i}")
            chol[:, i, i] = np.sqrt(s)
    k = np.arange(n)
    diag = chol[:, k, k]
    jacobi = np.zeros((moms.shape[0], n, n))
    jacobi[:, k, k] = np.diff(chol[:, k, k + 1] / diag, axis=1, prepend=0.0)
    jacobi[:, k[1:], k[:-1]] = jacobi[:, k[:-1], k[1:]] = diag[:, 1:] / diag[:, :-1]
    return jacobi


def moment_match(target, n_nodes: int):
    """Discrete distributions matching the first ``2 n_nodes - 1`` raw moments.

    ``target`` is a moment vector ``m_0 .. m_{2N-1}`` (``m_0 = 1``) or a pair
    ``(density, (a, b))`` whose moments come by quadrature, giving one
    :class:`DiscreteApprox`; or an ``(m, 2N)`` matrix of moment rows, giving
    a tuple of one per row, each equal to that row's own result. Matched
    moments are exact to 1e-8 relative, or :class:`NonConvergence` is raised
    (the moment of order ``2N`` is generally not matched); errors name the row.
    """
    if n_nodes < 1:
        raise DomainError("n_nodes must be >= 1")
    need = 2 * n_nodes
    if isinstance(target, tuple) and len(target) == 2 and callable(target[0]):
        f, support = target
        moms = _moments_from_density(f, support, need)
    else:
        moms = np.asarray(target, dtype=float)
        if moms.ndim not in (1, 2) or moms.shape[-1] < need:
            raise DomainError(f"need {need} moments m_0..m_{need - 1}")
    single = moms.ndim == 1
    moms = np.atleast_2d(moms)[:, :need]
    if not np.all(np.isfinite(moms)):
        raise DomainError("moments must be finite")
    bad = np.flatnonzero(np.abs(moms[:, 0] - 1.0) > 1e-6)
    if bad.size:
        raise DomainError(f"moment row {bad[0]}: m_0 must be 1, got {moms[bad[0], 0]!r}")

    nodes, vecs = np.linalg.eigh(_jacobi_from_moments(moms, n_nodes))  # one stacked solve
    weights = moms[:, :1] * vecs[:, 0, :] ** 2

    got = (weights[:, :, None] * nodes[:, :, None] ** np.arange(need)).sum(axis=1)
    bad = np.flatnonzero((np.abs(got - moms) / np.maximum(np.abs(moms), 1.0)).max(axis=1) > 1e-8)
    if bad.size:
        raise NonConvergence(f"moment row {bad[0]}: moment system could not be matched to 1e-8")

    weights = weights / weights.sum(axis=1, keepdims=True)
    fits = tuple(DiscreteApprox(x, w) for x, w in zip(nodes, weights))
    return fits[0] if single else fits
