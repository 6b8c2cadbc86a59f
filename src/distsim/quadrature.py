"""Numerical integration primitives.

Five entry points, all pure and reproducible:

* :func:`std_normal_cdf` -- standard normal CDF, absolute error below 1e-12
  (Cephes ``ndtr`` rational erf approximation, exact at infinities).
* :func:`log_gauss_mass` -- log standard normal mass of an interval, from
  ``log_ndtr`` in its own tail; every univariate normal mass is taken here.
* :func:`integrate_1d` -- adaptive Gauss-Kronrod quadrature (the QUADPACK
  ``qk21`` rule, Piessens et al. 1983) of a scalar- or vector-valued
  integrand on a finite or infinite interval, on panels evaluated as arrays.
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
from scipy.special import log_ndtr, ndtr, ndtri
from scipy.stats import qmc
from scipy.stats import t as _student_t

from .core import GaussianMulti, ObjectMemo, QuadResult, ScalarFn2
from .errors import DimensionMismatch, DomainError, NonConvergence, NotPositiveDefinite

__all__ = ["QuadConfig", "std_normal_cdf", "log_gauss_mass", "integrate_1d",
           "mvn_rect_prob", "integrate_2d_mc"]

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
#: most entries (nodes times outputs) one integrand call evaluates: 512 KB.
_CHUNK = 1 << 16

#: box probabilities per distribution object, keyed on (lower, upper, cfg).
_BOX_MEMO = ObjectMemo()


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for the integration routines.

    ``max_evals`` bounds the nodes (abscissae) :func:`integrate_1d` evaluates
    over all its passes; 21 nodes make one panel, so 21 is the least budget.
    ``mc_samples`` is the sample count of :func:`integrate_2d_mc`.
    :func:`mvn_rect_prob` splits it over its :data:`MC_REPLICATES`
    replicates and rounds each share up to a power of two (at least 64), so
    it samples up to twice as many points: 12 x 32,768 = 393,216 at the
    default 200,000.
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


def _on_arrays(f: Callable, *args: np.ndarray) -> np.ndarray:
    """``f`` on whole arrays, or element by element if it takes only scalars.

    An array result must have the arguments' shape, optionally with one more
    axis after it; otherwise ``f`` is called per element and returns a float.
    """
    shape = np.shape(args[0])
    try:
        out = np.asarray(f(*args), dtype=float)
        if out.shape[:len(shape)] == shape and out.ndim <= len(shape) + 1:
            return out
    except (TypeError, ValueError):
        pass
    return np.vectorize(f, otypes=[float])(*args)


def _finite_range(f: Callable, a: float, b: float) -> tuple[Callable, float, float]:
    """``f`` on ``(a, b)`` as an integrand on a finite interval, and that interval.

    ``x = c + s t / (1 - t^2)`` maps ``(-1, 1)`` onto the whole line and
    ``(0, 1)`` onto the half-line from the finite limit ``c`` in direction ``s``.
    """
    if math.isfinite(a) and math.isfinite(b):
        return f, a, b
    c, s, start = ((a, 1.0, 0.0) if math.isfinite(a) else
                   (b, -1.0, 0.0) if math.isfinite(b) else (0.0, 1.0, -1.0))

    def mapped(t: np.ndarray) -> np.ndarray:
        r = 1.0 / (1.0 - t * t)
        vals = _on_arrays(f, c + s * t * r)
        jac = (1.0 + t * t) * r * r
        return vals * (jac[:, None] if vals.ndim == 2 else jac)

    return mapped, start, 1.0


def integrate_1d(f: Callable, a: float, b: float,
                 cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Adaptive quadrature of ``f`` on ``(a, b)``; either limit may be infinite.

    ``f`` maps an ``(m,)`` array of abscissae to ``(m,)``, for a float
    ``value``, or to ``(m, n)``, for an ``(n,)`` one; a callable that takes
    only scalars is called point by point. Every entry shares the panels: a
    panel's value is its 21-point Gauss-Kronrod sum and its error the gap to
    the embedded 10-point Gauss sum. The first pass takes ``min(24,
    max_evals // 21)`` equal panels. Each pass retires the panels within
    their share (by width) of ``max(abs_tol, rel_tol * |integral|)`` in every
    entry and bisects the rest, until the summed errors meet that tolerance
    or no panel is left. ``f`` gets one panel first, which shows ``n``, then
    as many as fit in 65,536 entries (512 KB), and at least one.

    Returns ``error_estimate`` as the largest summed error and
    ``evaluations`` as the count of nodes. Raises :class:`NonConvergence`
    when the next pass would take more than ``cfg.max_evals`` nodes.
    """
    if not a < b:
        raise DomainError(f"need a < b, got ({a!r}, {b!r})")
    f, a, b = _finite_range(f, a, b)
    nodes = _GK21_U.size
    first = min(24, int(cfg.max_evals) // nodes)  # 24 settle NLN in one pass
    lo = a + (b - a) * (np.arange(first) / first)
    width = np.full_like(lo, (b - a) / first)
    total = error = 0.0
    evals, per_call = 0, 1
    while True:
        evals += nodes * lo.size
        if evals > cfg.max_evals:
            raise NonConvergence(f"1-D quadrature needs more than {cfg.max_evals} nodes: "
                                 f"{lo.size} panels are above tolerance")
        x, parts, s = lo[:, None] + width[:, None] * _GK21_U, [], 0
        while s < lo.size:
            rows = x[s:s + per_call]
            vals = _on_arrays(f, rows.ravel())
            vector = vals.ndim == 2
            parts.append(_GK21_W @ vals.reshape(*rows.shape, *(vals.shape[1:] or (1,))))
            s += len(rows)
            per_call = max(1, _CHUNK // max(vals.size // len(rows), 1))
        sums = np.concatenate(parts) * width[:, None, None]
        kron = sums[:, 0]
        gap = np.abs(sums[:, 1])
        value = total + np.add.reduce(kron)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
        bound = error + np.add.reduce(gap)
        if (bound <= tol).all():
            break
        done = (gap <= tol * (width / (b - a))[:, None]).all(axis=1)
        total = total + np.add.reduce(kron[done])
        error = error + np.add.reduce(gap[done])
        lo, width = lo[~done], 0.5 * width[~done]
        if not lo.size:  # every share met, but the tolerance shrank with |integral|
            value, bound = total, error
            break
        lo, width = np.concatenate([lo, lo + width]), np.concatenate([width, width])
    err = float(np.max(bound, initial=0.0))
    return QuadResult(value if vector else float(value[0]), err, evals)


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

    Returns a value clipped to ``(0, 1]``; ``error_estimate`` is the 99%
    half-width across replicates. A box with ``lower < upper`` has positive
    mass, so an estimate of 0 raises :class:`NonConvergence`. The result is
    remembered for ``dist`` (keyed on the bound bytes and ``cfg``) while
    ``dist`` lives, so a repeated box returns the same result,
    ``evaluations`` included.
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
    result = _BOX_MEMO.get(dist, (lower.tobytes(), upper.tobytes(), cfg),
                           lambda: _box_prob(dist, lower, upper, cfg))
    if result.value <= 0.0:
        raise NonConvergence("a box probability underflowed to 0: the box lies too far out")
    return result


def _box_prob(dist: GaussianMulti, lower: np.ndarray, upper: np.ndarray,
              cfg: QuadConfig) -> QuadResult:
    """:func:`mvn_rect_prob` for validated bounds, computed afresh."""
    k = dist.k
    chol = _cholesky(np.asarray(dist.cov, dtype=float))
    a = lower - dist.mu
    b = upper - dist.mu

    a0, b0 = a[0] / chol[0, 0], b[0] / chol[0, 0]
    if k == 1:
        return QuadResult(math.exp(log_gauss_mass(a0, b0)), 0.0, 1)
    if a0 > 0:
        # above the mean, sample -y_1 instead, whose mass does not cancel (as in
        # log_gauss_mass); the later coordinates see y_1 through a negated column
        a0, b0 = -b0, -a0
        chol[1:, 0] = -chol[1:, 0]

    n_per_rep = 1 << max(6, math.ceil(math.log2(max(1, cfg.mc_samples // MC_REPLICATES))))
    children = np.random.SeedSequence(cfg.seed).spawn(MC_REPLICATES)
    tiny = np.finfo(float).tiny
    rep_vals = np.empty(MC_REPLICATES)

    for r, child in enumerate(children):
        w = qmc.Sobol(d=k - 1, scramble=True,
                      seed=np.random.default_rng(child)).random_base2(
            int(math.log2(n_per_rep)))
        d = np.full(n_per_rep, ndtr(a0))
        e = np.full(n_per_rep, ndtr(b0))
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
    vals = _on_arrays(f, xs, ys)
    area = (x_hi - x_lo) * (y_hi - y_lo)
    value = float(vals.mean()) * area
    se = float(vals.std(ddof=1)) * area / math.sqrt(n)
    return QuadResult(value, 3.0 * se, n)
