"""Numerical integration primitives.

Six entry points, all pure and reproducible:

* :func:`std_normal_cdf` -- standard normal CDF, absolute error below 1e-12
  (Cephes ``ndtr`` rational erf approximation, exact at infinities).
* :func:`log_gauss_mass` -- log standard normal mass of an interval, from
  ``log_ndtr`` in its own tail; every univariate normal mass is taken here.
* :func:`integrate_1d` -- adaptive Gauss-Kronrod quadrature on finite or
  infinite intervals (QUADPACK; infinite limits are mapped to a bounded
  interval by its internal change of variables).
* :func:`integrate_1d_vec` -- adaptive 21-point Gauss-Kronrod quadrature of
  a vector-valued integrand on a finite interval, every entry on the same
  panels, evaluated as arrays a few panels at a time.
* :func:`mvn_rect_prob` -- multivariate normal probability of a box, via the
  separation-of-variables transform (Cholesky factor plus sequential
  conditioning) sampled with scrambled Sobol points; the error estimate is
  a 99% half-width over independent randomized replicates.
* :func:`integrate_2d_mc` -- plain Monte Carlo over a finite rectangle with
  a three-standard-error estimate.

Randomized routines derive every replicate stream deterministically from
``QuadConfig.seed`` (same seed, same bits; replicates could be evaluated in
parallel without changing results).

:func:`mvn_rect_prob` remembers each result per distribution object, keyed
on the exact bound bytes and the (frozen) ``QuadConfig``, for as long as
that object lives. Same seed means same bits, so a remembered result is
the one a recomputation would give; the pipeline thereby computes a
group's own box normaliser once per iteration rather than once per pair.
Nothing is shared between distinct objects, however equal their values.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _integrate
from scipy.special import log_ndtr, ndtr, ndtri
from scipy.stats import qmc
from scipy.stats import t as _student_t

from .core import GaussianMulti, ObjectMemo, QuadResult, ScalarFn, ScalarFn2
from .errors import DimensionMismatch, DomainError, NonConvergence, NotPositiveDefinite

__all__ = ["QuadConfig", "std_normal_cdf", "log_gauss_mass", "integrate_1d",
           "integrate_1d_vec", "mvn_rect_prob", "integrate_2d_mc"]

#: replicate count for randomized quasi-Monte Carlo error estimation.
MC_REPLICATES = 12

#: 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK ``qk21``), even in x:
#: the nodes x >= 0, their Kronrod weights, and their weights in the embedded
#: 10-point Gauss rule (0 at the Kronrod-only nodes).
_GK21_HALF_X = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
                0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
                0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
                0.14887433898163122, 0.0)
_GK21_HALF_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                 0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                 0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                 0.14773910490133849, 0.1494455540029169)
_GK21_HALF_WG = (0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0,
                 0.21908636251598204, 0.0, 0.26926671930999635, 0.0,
                 0.29552422471475287, 0.0)
#: the rule on [0, 1]: nodes, and as rows the Kronrod weights and the Kronrod
#: minus Gauss weights (whose sum is the error estimate), both halved.
_GK21_U = 0.5 + 0.5 * np.array([-x for x in _GK21_HALF_X[:-1]] + list(_GK21_HALF_X[::-1]))
_GK21_WK = np.array(_GK21_HALF_WK + _GK21_HALF_WK[-2::-1])
_GK21_W = 0.5 * np.array([_GK21_WK, _GK21_WK - (_GK21_HALF_WG + _GK21_HALF_WG[-2::-1])])
#: left ends of the equal panels of the first pass of :func:`integrate_1d_vec`,
#: as fractions of the interval; 24 of them resolve the NLN mixing integrands
#: up to sigma_Y = 1 without a second pass.
_VEC_START = np.arange(24) / 24
#: most entries (nodes times outputs) one integrand call evaluates: 512 KB.
_VEC_CHUNK = 1 << 16

#: box probabilities per distribution object, keyed on (lower, upper, cfg).
_BOX_MEMO = ObjectMemo()


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for the integration routines.

    ``max_evals`` bounds the integrand evaluations of :func:`integrate_1d`
    (as ``max_evals // 21`` subintervals) and the nodes of
    :func:`integrate_1d_vec`. ``mc_samples`` is the sample count of
    :func:`integrate_2d_mc`. :func:`mvn_rect_prob` splits it over its
    :data:`MC_REPLICATES` replicates and rounds each share up to a power of
    two (at least 64), so it samples up to twice as many points: 12 x 32,768
    = 393,216 at the default 200,000.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_evals: int = 50_000
    mc_samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must be > 0")
        if self.mc_samples < 1000:
            raise DomainError("mc_samples must be >= 1000")
        if self.max_evals < 21:
            raise DomainError("max_evals must allow at least one panel (>= 21)")


DEFAULT_CONFIG = QuadConfig()


def std_normal_cdf(x):
    """Standard normal CDF; accepts scalars or arrays, and ``+-inf``.

    Monotone nondecreasing with ``cdf(-inf) = 0`` and ``cdf(+inf) = 1``;
    absolute error below 1e-12 everywhere.
    """
    out = ndtr(np.asarray(x, dtype=float))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def log_gauss_mass(a: float, b: float) -> float:
    """``ln(Phi(b) - Phi(a))`` for standardised bounds ``a <= b``, either infinite.

    Above the mean the interval is mirrored to ``(-b, -a)``, so the mass never
    cancels near 1 nor underflows where ``ndtr`` does (past about 37 sigma);
    ``lb + log(-expm1(la - lb))`` keeps narrow intervals accurate. An empty
    interval gives ``-inf``.
    """
    la, lb = log_ndtr((-b, -a) if a > 0 else (a, b))
    gap = -math.expm1(la - lb)
    return float(lb + math.log(gap)) if gap > 0 else -math.inf


def integrate_1d(f: ScalarFn, a: float, b: float,
                 cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Adaptive quadrature of ``f`` on ``(a, b)``; either limit may be infinite.

    Raises :class:`NonConvergence` when the subdivision budget implied by
    ``cfg.max_evals`` is exhausted while the reported error still exceeds
    ``cfg.abs_tol``.
    """
    if not a < b:
        raise DomainError(f"need a < b, got ({a!r}, {b!r})")
    limit = max(1, int(cfg.max_evals) // 21)
    out = _integrate.quad(f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                          limit=limit, full_output=True)
    value, abserr, info = out[0], out[1], out[2]
    if len(out) > 3 and abserr > cfg.abs_tol:
        raise NonConvergence(
            f"1-D quadrature stalled at error {abserr:.3e} > {cfg.abs_tol:.3e}: {out[3]}"
        )
    return QuadResult(float(value), float(abserr), int(info["neval"]))


def integrate_1d_vec(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                     size: int, cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Adaptive quadrature of a vector-valued ``f`` on the finite ``(a, b)``.

    ``f`` maps an ``(m,)`` array of abscissae to an ``(m, size)`` array, and
    every entry is integrated on the same panels. A panel's value is its
    21-point Gauss-Kronrod sum; its error is the gap to the embedded 10-point
    Gauss sum. The first pass takes equal panels. The integral is done once
    the summed panel errors are within ``max(abs_tol, rel_tol * |integral|)``
    in every entry. Until then, each pass retires the panels whose error is
    within their share (by width) of that tolerance in every entry and
    bisects the rest; when none is left to bisect, the integral is done too.
    Each call of ``f`` takes as many whole panels as fit in 65,536 entries
    (512 KB), and at least one.

    Returns ``value`` as a ``(size,)`` array, ``error_estimate`` as the
    largest entry of the summed panel errors and ``evaluations`` as the count
    of nodes. Raises :class:`NonConvergence` when the next pass would take
    more than ``cfg.max_evals`` nodes (the first takes 504).
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"need finite a < b, got ({a!r}, {b!r})")
    nodes = _GK21_U.size
    per_call = max(1, _VEC_CHUNK // (nodes * max(size, 1)))
    lo = a + (b - a) * _VEC_START
    width = np.full_like(lo, (b - a) / lo.size)
    total = error = np.zeros(size)
    evals = 0
    while True:
        evals += nodes * lo.size
        if evals > cfg.max_evals:
            raise NonConvergence(
                f"vector quadrature needs more than {cfg.max_evals} nodes: "
                f"{lo.size} panels are above tolerance"
            )
        x = lo[:, None] + width[:, None] * _GK21_U
        sums = np.empty((lo.size, 2, size))
        for s in range(0, lo.size, per_call):
            rows = x[s:s + per_call]
            vals = np.asarray(f(rows.ravel()), dtype=float).reshape(*rows.shape, size)
            np.matmul(_GK21_W, vals, out=sums[s:s + per_call])
        sums *= width[:, None, None]
        kron = sums[:, 0]
        gap = np.abs(sums[:, 1])
        value = total + np.add.reduce(kron)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
        bound = error + np.add.reduce(gap)
        if (bound <= tol).all():
            return QuadResult(value, float(bound.max(initial=0.0)), evals)
        done = (gap <= tol * (width / (b - a))[:, None]).all(axis=1)
        total = total + np.add.reduce(kron[done])
        error = error + np.add.reduce(gap[done])
        lo, width = lo[~done], 0.5 * width[~done]
        if not lo.size:  # every share met, but the tolerance shrank with |integral|
            return QuadResult(total, float(error.max(initial=0.0)), evals)
        lo, width = np.concatenate([lo, lo + width]), np.concatenate([width, width])


def _cholesky(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as e:
        raise NotPositiveDefinite(str(e)) from e


def mvn_rect_prob(dist: GaussianMulti, lower, upper,
                  cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Probability that ``dist`` falls inside the box ``[lower, upper]``.

    Bound entries may be infinite. The sequential-conditioning transform
    reduces the k-dimensional integral to an expectation over the unit cube
    of dimension k-1, estimated with :data:`MC_REPLICATES` independently
    scrambled Sobol streams of ``cfg.mc_samples // 12`` points each, rounded
    up to a power of two (at least 64). For k = 1 the transform is exact and
    no sampling happens.

    Returns a value clipped to ``[0, 1]``; ``error_estimate`` is the 99%
    half-width across replicates. The result is remembered for ``dist``
    (keyed on the bound bytes and ``cfg``) while ``dist`` lives, so a
    repeated box returns the same result, ``evaluations`` included.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    k = dist.k
    if lower.shape != (k,) or upper.shape != (k,):
        raise DimensionMismatch(
            f"bounds must have shape ({k},), got {lower.shape} and {upper.shape}"
        )
    if not np.all(lower < upper):
        raise DomainError("each lower bound must be < the matching upper bound")
    return _BOX_MEMO.get(dist, (lower.tobytes(), upper.tobytes(), cfg),
                         lambda: _box_prob(dist, lower, upper, cfg))


def _box_prob(dist: GaussianMulti, lower: np.ndarray, upper: np.ndarray,
              cfg: QuadConfig) -> QuadResult:
    """:func:`mvn_rect_prob` for validated bounds, computed afresh."""
    k = dist.k
    chol = _cholesky(np.asarray(dist.cov, dtype=float))
    a = lower - dist.mu
    b = upper - dist.mu

    if k == 1:
        return QuadResult(math.exp(log_gauss_mass(a[0] / chol[0, 0], b[0] / chol[0, 0])),
                          0.0, 1)

    n_per_rep = 1 << max(6, math.ceil(math.log2(max(1, cfg.mc_samples // MC_REPLICATES))))
    children = np.random.SeedSequence(cfg.seed).spawn(MC_REPLICATES)
    tiny = np.finfo(float).tiny
    rep_vals = np.empty(MC_REPLICATES)

    for r, child in enumerate(children):
        w = qmc.Sobol(d=k - 1, scramble=True,
                      seed=np.random.default_rng(child)).random_base2(
            int(math.log2(n_per_rep)))
        d = np.full(n_per_rep, ndtr(a[0] / chol[0, 0]))
        e = np.full(n_per_rep, ndtr(b[0] / chol[0, 0]))
        prod = e - d
        y = np.empty((n_per_rep, k - 1))
        for i in range(1, k):
            z = np.clip(d + w[:, i - 1] * (e - d), tiny, 1.0 - 1e-16)
            y[:, i - 1] = ndtri(z)
            t_shift = y[:, :i] @ chol[i, :i]
            d = ndtr((a[i] - t_shift) / chol[i, i])
            e = ndtr((b[i] - t_shift) / chol[i, i])
            prod = prod * np.maximum(e - d, 0.0)
        rep_vals[r] = prod.mean()

    value = float(rep_vals.mean())
    sd = float(rep_vals.std(ddof=1))
    half_width = float(_student_t.ppf(0.995, MC_REPLICATES - 1)) * sd / math.sqrt(
        MC_REPLICATES)
    if not math.isfinite(value) or half_width > 0.05:
        raise NonConvergence(
            f"box probability did not stabilize (estimate {value!r}, "
            f"99% half-width {half_width:.3e})"
        )
    return QuadResult(min(max(value, 0.0), 1.0), half_width,
                      MC_REPLICATES * n_per_rep)


def integrate_2d_mc(f: ScalarFn2, box, cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Plain Monte Carlo integral of ``f`` over a finite rectangle.

    ``box`` is ``((x_lo, x_hi), (y_lo, y_hi))``. The estimate is unbiased
    and ``error_estimate`` is three standard errors of the mean.
    """
    (x_lo, x_hi), (y_lo, y_hi) = box
    if not (np.isfinite([x_lo, x_hi, y_lo, y_hi]).all() and x_lo < x_hi and y_lo < y_hi):
        raise DomainError("box must be a finite rectangle with lo < hi per axis")
    n = int(cfg.mc_samples)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    xs = rng.uniform(x_lo, x_hi, n)
    ys = rng.uniform(y_lo, y_hi, n)
    try:
        vals = np.asarray(f(xs, ys), dtype=float)
        if vals.shape != (n,):
            raise TypeError
    except TypeError:
        vals = np.fromiter((f(float(x), float(y)) for x, y in zip(xs, ys)),
                           dtype=float, count=n)
    area = (x_hi - x_lo) * (y_hi - y_lo)
    value = float(vals.mean()) * area
    se = float(vals.std(ddof=1)) * area / math.sqrt(n)
    return QuadResult(value, 3.0 * se, n)
