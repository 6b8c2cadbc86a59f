"""Distribution-free similarity measures between probability distributions.

The central quantity is the overlap coefficient

    rho(p, q) = sum_i sqrt(p_i * q_i)        (discrete)
    rho(f, g) = integral sqrt(f(x) * g(x)) dx  (continuous)

with the associated divergence ``-ln(rho)``, the metric ``sqrt(1 - rho)``,
the Hellinger/Matusita distance ``sum (sqrt(p_i) - sqrt(q_i))^2 = 2 - 2 rho``,
the chi-squared measure and the Kullback-Leibler divergence. KL uses natural
logarithms (nats) so it shares units with ``-ln(rho)``. Discrete laws are
compared outcome by outcome: by label when they are labelled, by position
when they are not.

The continuous coefficient is evaluated by adaptive quadrature and serves as
the independent cross-check for every closed form in :mod:`distsim.gaussian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiscreteDist, ScalarFn
from .errors import DimensionMismatch, DomainError, EmptySample, NotADensity
from .quadrature import _on_arrays, integrate_1d

__all__ = [
    "DivergenceValue",
    "bc_coefficient_discrete",
    "modified_metric",
    "hellinger_discrete",
    "chi_squared_discrete",
    "kl_discrete",
    "multi_population_coefficient",
    "sample_coefficient",
    "bc_coefficient_continuous",
]

#: coefficient overshoot beyond 1 tolerated from quadrature before rejection.
_COEFF_SLACK = 1e-6
#: smallest positive double; keeps "coefficient == 0 iff distance == inf" exact.
_TINY = 5e-324


@dataclass(frozen=True)
class DivergenceValue:
    """Overlap coefficient in ``[0, 1]`` with its divergence ``-ln(rho)``.

    ``distance`` is ``+inf`` exactly when ``coefficient`` is zero.
    """

    coefficient: float
    distance: float

    def __post_init__(self):
        c, d = self.coefficient, self.distance
        if not 0.0 <= c <= 1.0:
            raise DomainError(f"coefficient must be in [0, 1], got {c!r}")
        if c == 0.0:
            if not math.isinf(d):
                raise DomainError("zero coefficient requires infinite distance")
        elif c <= _TINY and d >= -math.log(_TINY) - 1.0:
            pass  # exp(-d) underflowed; coefficient floored at the subnormal min
        elif not math.isclose(d, -math.log(c), rel_tol=1e-9, abs_tol=1e-12):
            raise DomainError("distance must equal -ln(coefficient)")

    @classmethod
    def from_coefficient(cls, rho: float) -> "DivergenceValue":
        if not -_COEFF_SLACK <= rho <= 1.0 + _COEFF_SLACK:
            raise DomainError(f"coefficient {rho!r} outside [0, 1] beyond tolerance")
        rho = min(max(float(rho), 0.0), 1.0)
        # 0.0 - x, not -x: a coefficient of 1 gives distance +0.0, never -0.0
        return cls(rho, math.inf if rho == 0.0 else 0.0 - math.log(rho))

    @classmethod
    def from_distance(cls, d: float) -> "DivergenceValue":
        d = max(float(d), 0.0) + 0.0  # + 0.0 turns -0.0 into +0.0
        if math.isinf(d):
            return cls(0.0, math.inf)
        rho = math.exp(-d)
        return cls(rho if rho > 0.0 else _TINY, d)


def _stacked(dists: list[DiscreteDist]) -> np.ndarray:
    """One row of probabilities per law, its columns the shared outcomes.

    Unlabelled laws pair categories by position. Labelled laws pair them by
    label, on the union of labels in first-seen order, with mass 0 where a
    law lacks a label; equal labels in equal order keep the given columns.
    A labelled law is never compared with an unlabelled one.
    """
    if all(d.labels is None for d in dists):
        if len({d.k for d in dists}) > 1:
            raise DimensionMismatch(
                f"category counts differ: {' vs '.join(str(d.k) for d in dists)}")
        return np.stack([d.probs for d in dists])
    if any(d.labels is None for d in dists):
        raise DimensionMismatch("cannot pair the categories of a labelled and an "
                                "unlabelled distribution")
    union = dict.fromkeys(label for d in dists for label in d.labels)
    column = {label: i for i, label in enumerate(union)}
    out = np.zeros((len(dists), len(union)))
    for row, d in zip(out, dists):
        row[[column[label] for label in d.labels]] = d.probs
    return out


def bc_coefficient_discrete(p: DiscreteDist, q: DiscreteDist) -> DivergenceValue:
    """Overlap coefficient ``sum sqrt(p_i q_i)`` and its divergence."""
    pv, qv = _stacked([p, q])
    rho = float(np.sqrt(pv * qv).sum())
    return DivergenceValue.from_coefficient(rho)


def modified_metric(rho: float) -> float:
    """``sqrt(1 - rho)``: a true metric (symmetric, triangle inequality)."""
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must be in [0, 1], got {rho!r}")
    return math.sqrt(max(0.0, 1.0 - rho))


def hellinger_discrete(p: DiscreteDist, q: DiscreteDist) -> float:
    """``sum (sqrt(p_i) - sqrt(q_i))^2``; identically ``2 - 2 rho``."""
    pv, qv = _stacked([p, q])
    d = np.sqrt(pv) - np.sqrt(qv)
    return float((d * d).sum())


def chi_squared_discrete(p: DiscreteDist, q: DiscreteDist) -> float:
    """``0.5 * sum (p_i - q_i)^2 / (p_i + q_i)``; empty bins contribute 0."""
    pv, qv = _stacked([p, q])
    num = (pv - qv) ** 2
    den = pv + qv
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return 0.5 * float(terms.sum())


def kl_discrete(p: DiscreteDist, q: DiscreteDist) -> float:
    """KL divergence of ``q`` from ``p`` in nats; ``+inf`` if ``q`` misses mass.

    Uses the convention ``0 * log(0 / q) = 0``. Not symmetric.
    """
    pv, qv = _stacked([p, q])
    support = pv > 0
    if np.any(support & (qv == 0)):
        return math.inf
    ps, qs = pv[support], qv[support]
    return float(np.sum(ps * np.log(ps / qs)))


def multi_population_coefficient(dists: list[DiscreteDist]) -> float:
    """Overlap coefficient of M populations, aligned as the pairwise measures are.

    ``sum_i (p_1i p_2i ... p_Mi)^(1/M)``; reduces to the pairwise
    coefficient for M = 2 and is invariant under permutation of the list
    (the per-category product is taken in sorted order).
    """
    if len(dists) < 2:
        raise DomainError("need at least two populations")
    stacked = np.sort(_stacked(dists), axis=0)
    geo = np.prod(stacked, axis=0) ** (1.0 / len(dists))
    return float(min(geo.sum(), 1.0))


def sample_coefficient(counts_p, counts_q) -> float:
    """Plug-in coefficient from two count vectors (MLE relative frequencies)."""
    cp = np.asarray(counts_p, dtype=float)
    cq = np.asarray(counts_q, dtype=float)
    if cp.shape != cq.shape or cp.ndim != 1:
        raise DimensionMismatch("count vectors must be 1-D and aligned")
    if np.any(cp < 0) or np.any(cq < 0):
        raise DomainError("counts must be nonnegative")
    mp, mq = cp.sum(), cq.sum()
    if mp < 1 or mq < 1:
        raise EmptySample("each sample needs at least one observation")
    return float(min(np.sqrt((cp / mp) * (cq / mq)).sum(), 1.0))


def bc_coefficient_continuous(f: ScalarFn, g: ScalarFn, support) -> DivergenceValue:
    """Overlap coefficient of two densities by adaptive quadrature.

    ``support`` is ``(a, b)`` with either limit possibly infinite. Both
    functions must integrate to 1 over the support within 1e-6, otherwise
    :class:`NotADensity` is raised. Tiny negative density values (noise in
    user-supplied functions) are treated as zero.
    """
    def parts(x: np.ndarray) -> np.ndarray:
        fx = np.maximum(_on_arrays(f, x), 0.0)
        gx = np.maximum(_on_arrays(g, x), 0.0)
        return np.stack([fx, gx, np.sqrt(fx * gx)], axis=1)

    mass_f, mass_g, rho = integrate_1d(parts, *support).value
    for name, mass in (("f", mass_f), ("g", mass_g)):
        if abs(mass - 1.0) > 1e-6:
            raise NotADensity(f"{name} integrates to {float(mass)!r} over the support, not 1")
    return DivergenceValue.from_coefficient(rho)
