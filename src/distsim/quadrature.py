"""Numerical integration primitives.

Three entry points, all pure and reproducible:

* :func:`log_gauss_mass` -- log standard normal mass of an interval, from
  ``log_ndtr`` in its own tail; every univariate normal mass is taken here.
* :func:`integrate_1d` -- adaptive Gauss-Kronrod quadrature (the QUADPACK
  ``qk21`` rule, Piessens et al. 1983) of a scalar- or vector-valued
  integrand on a finite or infinite interval, on panels evaluated as arrays,
  to the module tolerances :data:`ABS_TOL` and :data:`REL_TOL` within
  :data:`MAX_EVALS` nodes.
* :func:`mvn_rect_prob` -- multivariate normal probability of a box, via the
  separation-of-variables transform (Cholesky factor plus sequential
  conditioning) sampled with scrambled Sobol points until the 99% half-width
  over independent randomized replicates is within :data:`MC_REL_TARGET`
  of the value, or the sample budget is spent.

:class:`QuadConfig` holds the seed and sample cap of :func:`mvn_rect_prob`,
which derives every replicate stream deterministically from its seed (same
seed, same bits; replicates could be evaluated in parallel without changing
results).

:func:`mvn_rect_prob` remembers each result per distribution object, keyed
on the exact bound bytes and the (frozen) ``QuadConfig``, for as long as
that object lives. Same seed means same bits, so a remembered result is
the one a recomputation would give; the pipeline thereby computes a
group's own box normaliser once per iteration rather than once per pair.
Nothing is shared between distinct objects, however equal their values,
and nothing is stored on the normal, which stays picklable: the memo is
the weak-keyed table :data:`_BOXES`. Each box has its own lock, so racing
callers wait for the first computation while other boxes compute in
parallel; a computation that raises stores nothing.
"""

from __future__ import annotations

import copy
import functools
import math
import threading
import weakref
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri
from scipy.stats import qmc
from scipy.stats import t as _student_t

from .core import GaussianMulti, QuadResult
from .errors import DimensionMismatch, DomainError, NonConvergence, NotPositiveDefinite

__all__ = ["QuadConfig", "log_gauss_mass", "integrate_1d", "mvn_rect_prob"]

#: absolute and relative tolerance of :func:`integrate_1d`.
ABS_TOL = 1e-9
REL_TOL = 1e-9
#: most nodes (abscissae) :func:`integrate_1d` evaluates over all its passes.
MAX_EVALS = 50_000

#: replicate count for randomized quasi-Monte Carlo error estimation.
MC_REPLICATES = 12
#: relative 99% half-width at which :func:`mvn_rect_prob` stops sampling.
MC_REL_TARGET = 1e-5
#: Student t quantile of a two-sided 99% interval over the replicates.
_T995 = float(_student_t.ppf(0.995, MC_REPLICATES - 1))
#: most sample rows one conditioning pass of :func:`mvn_rect_prob` holds.
_BOX_ROWS = 1 << 15

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

#: box probabilities per normal while it lives: normal -> {(lower bytes,
#: upper bytes, cfg): [the box's lock] + [its result, once computed]}.
_BOXES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
#: guards :data:`_BOXES` and its inner tables, never a computation.
_BOXES_LOCK = threading.Lock()


@dataclass(frozen=True)
class QuadConfig:
    """Sample cap and seed of the box probabilities of :func:`mvn_rect_prob`.

    ``mc_samples`` is split over the :data:`MC_REPLICATES` replicates, each
    share rounded up to a power of two (at least 64), so at most 12 x 32,768
    = 393,216 points at the default 200,000. A box stops sampling earlier
    once its 99% half-width is within :data:`MC_REL_TARGET` (1e-5) of its
    value.
    """

    mc_samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.mc_samples < 1000:
            raise DomainError("mc_samples must be >= 1000")


DEFAULT_CONFIG = QuadConfig()


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


def integrate_1d(f: Callable, a: float, b: float) -> QuadResult:
    """Adaptive quadrature of ``f`` on ``(a, b)``; either limit may be infinite.

    ``f`` maps an ``(m,)`` array of abscissae to ``(m,)``, for a float
    ``value``, or to ``(m, n)``, for an ``(n,)`` one; a callable that takes
    only scalars is called point by point. Every entry shares the panels: a
    panel's value is its 21-point Gauss-Kronrod sum and its error the gap to
    the embedded 10-point Gauss sum. The first pass takes ``min(24,
    MAX_EVALS // 21)`` equal panels. Each pass retires the panels within
    their share (by width) of ``max(ABS_TOL, REL_TOL * |integral|)`` in every
    entry and bisects the rest, until the summed errors meet that tolerance
    or no panel is left. ``f`` gets one panel first, which shows ``n``, then
    as many as fit in 65,536 entries (512 KB), and at least one.

    Returns ``error_estimate`` as the largest summed error and
    ``evaluations`` as the count of nodes. Raises :class:`NonConvergence`
    when the next pass would take more than :data:`MAX_EVALS` nodes. The
    module constants are read at each call.
    """
    if not a < b:
        raise DomainError(f"need a < b, got ({a!r}, {b!r})")
    f, a, b = _finite_range(f, a, b)
    nodes = _GK21_U.size
    first = min(24, MAX_EVALS // nodes)  # 24 settle NLN in one pass
    lo = a + (b - a) * (np.arange(first) / first)
    width = np.full_like(lo, (b - a) / first)
    total = error = 0.0
    evals, per_call = 0, 1
    while True:
        evals += nodes * lo.size
        if evals > MAX_EVALS:
            raise NonConvergence(f"1-D quadrature needs more than {MAX_EVALS} nodes: "
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
        tol = np.maximum(ABS_TOL, REL_TOL * np.abs(value))
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
    scrambled Sobol streams. Each stream's cap is ``cfg.mc_samples // 12``
    points, rounded up to a power of two (at least 64). A stream first takes
    1,024 points (or its cap, if less), then doubles by taking the next
    points of its sequence, until the 99% half-width across replicates is
    at most :data:`MC_REL_TARGET` (1e-5) times the value or the cap is
    reached. For k = 1 the transform is exact and no sampling happens.

    Returns a value clipped to ``(0, 1]``; ``error_estimate`` is the 99%
    half-width across replicates and ``evaluations`` the count of points
    sampled. A box with ``lower < upper`` has positive mass, so an estimate
    of 0 raises :class:`NonConvergence`. The result is remembered for
    ``dist`` (keyed on the bound bytes and ``cfg``) while ``dist`` lives, so
    a repeated box returns the same result, ``evaluations`` included; an
    equal-valued but distinct normal computes its own. The first caller of
    a box computes it under the box's lock, while racing callers wait for
    that result and other boxes compute in parallel; if the computation
    raises, nothing is stored and the next call computes afresh.
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
    key = (lower.tobytes(), upper.tobytes(), cfg)
    with _BOXES_LOCK:
        boxes = _BOXES.setdefault(dist, {})
        slot = boxes.get(key) or boxes.setdefault(key, [threading.Lock()])
    with slot[0]:
        if len(slot) == 1:
            slot.append(_box_prob(dist, lower, upper, cfg))
        result = slot[1]
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
    if k == 1:
        return QuadResult(math.exp(log_gauss_mass(a[0] / chol[0, 0], b[0] / chol[0, 0])),
                          0.0, 1)

    cap = 1 << max(6, math.ceil(math.log2(max(1, cfg.mc_samples // MC_REPLICATES))))
    engines = [copy.deepcopy(engine) for engine in _sobol_engines(cfg.seed, k - 1)]
    sums = np.zeros(MC_REPLICATES)
    drawn, n = 0, min(cap, 1 << 10)
    while True:
        # each replicate's next n points extend its stream; replicates are
        # stacked, as many at a time as fit in _BOX_ROWS rows
        group = max(1, _BOX_ROWS // n)
        for r in range(0, MC_REPLICATES, group):
            w = np.concatenate([engine.random(n) for engine in engines[r:r + group]])
            sums[r:r + group] += _conditioned_mass(w, a, b, chol).reshape(-1, n).sum(axis=1)
        drawn += n
        rep_vals = sums / drawn
        value = float(rep_vals.mean())
        half_width = _T995 * float(rep_vals.std(ddof=1)) / math.sqrt(MC_REPLICATES)
        if drawn == cap or half_width <= MC_REL_TARGET * value:
            break
        n = drawn
    if not math.isfinite(value) or half_width > 0.05:
        raise NonConvergence(
            f"box probability did not stabilize (estimate {value!r}, "
            f"99% half-width {half_width:.3e})"
        )
    return QuadResult(min(max(value, 0.0), 1.0), half_width, MC_REPLICATES * drawn)


@functools.lru_cache(maxsize=8)
def _sobol_engines(seed: int, d: int) -> tuple[qmc.Sobol, ...]:
    """The replicates' scrambled Sobol engines for ``seed``, never drawn from.

    Every box of one seed and dimension starts from the same scrambles, and
    copying an engine costs a quarter of building it.
    """
    return tuple(qmc.Sobol(d=d, scramble=True, seed=np.random.default_rng(child))
                 for child in np.random.SeedSequence(seed).spawn(MC_REPLICATES))


def _conditioned_mass(w: np.ndarray, a: np.ndarray, b: np.ndarray,
                      chol: np.ndarray) -> np.ndarray:
    """The box mass given each row of ``w``, points of the unit cube of dimension k-1.

    Coordinate i takes the standard normal mass of its bounds given the
    coordinates before it, and a point of ``w`` draws it inside them. Where
    the lower bound lies above the mean, the mirrored interval is taken (as
    in :func:`log_gauss_mass`), whose mass does not cancel, and the draw is
    negated.
    """
    k = chol.shape[0]
    tiny = np.finfo(float).tiny
    y = np.empty_like(w)
    lo, hi = a[0] / chol[0, 0], b[0] / chol[0, 0]
    prod = 1.0
    for i in range(k):
        if i:
            shift = y[:, :i] @ chol[i, :i]
            lo, hi = (a[i] - shift) / chol[i, i], (b[i] - shift) / chol[i, i]
        flip = lo > 0
        d = ndtr(np.where(flip, -hi, lo))
        e = ndtr(np.where(flip, -lo, hi))
        prod = prod * np.maximum(e - d, 0.0)
        if i < k - 1:
            q = ndtri(np.clip(d + w[:, i] * (e - d), tiny, 1.0 - 1e-16))
            y[:, i] = np.where(flip, -q, q)
    return prod
