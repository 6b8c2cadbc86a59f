"""Closed-form overlap distances for normal and truncated normal families.

Univariate and multivariate normal distances are fully closed-form. The
truncated variants add the two truncation-normalization probabilities and
subtract the probability that a "mixture" Gaussian (precision-weighted mean
``nu``/``m``, combined scale ``varsigma``/``2S``) lands in the common
support. The common support is ``[max of lower bounds, min of upper
bounds]`` per coordinate; if it is empty the distributions share no mass
and the distance is infinite. All univariate normal masses are taken in log
space (:func:`~distsim.quadrature.log_gauss_mass`), however far in a tail.
Truncated moments come from one integration-by-parts recursion, which
:func:`fit_truncated_normal` inverts by a convex Newton solve.

Log-determinants are always computed as sums of eigenvalue logarithms,
never through raw determinants, so well-conditioned but large-entry
covariances cannot overflow. Covariances with condition number above 1e12
are rejected with :class:`NotPositiveDefinite` rather than silently
regularized (shrinkage belongs to the estimation layer, not here).

Terms that depend on one distribution only cost one computation per fit,
not one per pair: a :class:`~distsim.core.GaussianMulti` carries the
log-determinant and condition number of its covariance from when it is
built, and a truncated normal's :meth:`parent` is one object whose box
normaliser :func:`~distsim.quadrature.mvn_rect_prob` remembers. Only the
average covariance's eigenvalues, the mixture normal (built once, by
:class:`~distsim.core.MvnOverlapParams`) and the overlap box stay per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GaussianMulti,
    GaussianUni,
    MvnOverlapParams,
    OverlapParams,
    QuadResult,
    TruncGaussianMulti,
    TruncGaussianUni,
    log_det_condition,
)
from .divergence import DivergenceValue
from .errors import (DimensionMismatch, DomainError, NoSolution,
                     NotPositiveDefinite)
from .quadrature import DEFAULT_CONFIG, QuadConfig, log_gauss_mass, mvn_rect_prob

__all__ = [
    "bc_normal_uni",
    "bc_mvn",
    "bc_truncated_uni",
    "bc_truncated_mvn",
    "truncated_moments",
    "fit_truncated_normal",
    "overlap_params",
    "mvn_overlap_params",
    "TruncatedMvnTerms",
    "truncated_mvn_terms",
    "InequalityCheck",
    "truncation_inequality_holds_uni",
    "truncation_inequality_holds_mvn",
]

#: covariance condition number beyond which distances refuse to evaluate.
MAX_CONDITION = 1e12

#: truncated-normal moment fit: Newton decrement taken as converged, largest
#: scaled mean/variance gap accepted, and Newton step budget.
_FIT_TOL, _FIT_GAP, _FIT_STEPS = 1e-24, 1e-9, 50


def bc_normal_uni(p: GaussianUni, q: GaussianUni) -> DivergenceValue:
    """Distance between two univariate normals.

    ``D = 1/4 ln(1/4 (vp/vq + vq/vp + 2)) + 1/4 (mu_p - mu_q)^2 / (vp + vq)``.
    """
    vp, vq = p.sigma2, q.sigma2
    var_term = 0.25 * math.log(0.25 * ((vp / vq + vq / vp) + 2.0))
    mean_term = 0.25 * (p.mu - q.mu) ** 2 / (vp + vq)
    return DivergenceValue.from_distance(var_term + mean_term)


def bc_mvn(p: GaussianMulti, q: GaussianMulti) -> DivergenceValue:
    """Distance between two multivariate normals.

    ``D = 1/8 d^T S^-1 d + 1/2 ln(det S / sqrt(det Sp det Sq))`` with
    ``S = (Sp + Sq) / 2`` and ``d`` the mean difference; the log-det ratio
    is evaluated through eigenvalue log-sums. Each operand brings its own
    ``log_det`` and ``condition``; only the eigenvalues of ``S`` and one
    solve are per pair.
    """
    if p.k != q.k:
        raise DimensionMismatch(f"dimensions differ: {p.k} vs {q.k}")
    avg = 0.5 * (p.cov + q.cov)
    log_avg, cond_avg = log_det_condition(avg)
    for condition, label in ((cond_avg, "average covariance"),
                             (p.condition, "first covariance"),
                             (q.condition, "second covariance")):
        if condition > MAX_CONDITION:
            raise NotPositiveDefinite(
                f"{label} is numerically singular (condition number above {MAX_CONDITION:.0e})"
            )
    d = p.mu - q.mu
    quad = 0.125 * float(d @ np.linalg.solve(avg, d))
    logdet = 0.5 * (log_avg - 0.5 * (p.log_det + q.log_det))
    return DivergenceValue.from_distance(quad + logdet)


def overlap_params(p: TruncGaussianUni, q: TruncGaussianUni) -> OverlapParams | None:
    """Common-support interval and mixture parameters, or ``None`` if disjoint."""
    lo = max(p.lower, q.lower)
    hi = min(p.upper, q.upper)
    if not lo < hi:
        return None
    vp, vq = p.sigma2, q.sigma2
    nu = (p.mu * vq + q.mu * vp) / (vp + vq)
    varsigma = math.sqrt(2.0 * vp * vq / (vp + vq))
    return OverlapParams(lo, hi, nu, varsigma)


def _uni_log_masses(p: TruncGaussianUni,
                    q: TruncGaussianUni) -> tuple[float, float, float] | None:
    """``(ln Z_p, ln Z_q, ln Z_overlap)``, or ``None`` if the supports are disjoint."""
    ov = overlap_params(p, q)
    if ov is None:
        return None
    return tuple(log_gauss_mass((lo - mu) / sd, (hi - mu) / sd) for mu, sd, lo, hi in (
        (p.mu, p.sigma, p.lower, p.upper), (q.mu, q.sigma, q.lower, q.upper),
        (ov.nu, ov.varsigma, ov.l, ov.u)))


def _moments_about(c: float, a: float, b: float) -> list[float]:
    """``E[(Z - c)^k]``, ``k = 0..4``, for ``Z`` standard normal truncated to ``(a, b)``.

    By parts, ``E[(Z-c)^k] = (k-1) E[(Z-c)^(k-2)] - c E[(Z-c)^(k-1)] + ((a-c)^(k-1)
    pdf(a) - (b-c)^(k-1) pdf(b)) / Z``, each pdf/mass ratio ``exp(logpdf - ln Z)``:
    finite however far in a tail; too narrow an interval gives nan or OverflowError.
    """
    log_z = log_gauss_mass(a, b)
    (da, ra), (db, rb) = ((0.0, 0.0) if math.isinf(x) else
                          (x - c, math.exp(-0.5 * (x * x + math.log(2.0 * math.pi)) - log_z))
                          for x in (a, b))
    m = [1.0]
    for k in range(1, 5):
        m.append((k - 1) * m[k - 2] + da ** (k - 1) * ra - db ** (k - 1) * rb - c * m[k - 1])
    return m


def truncated_moments(mu: float, sigma: float, lo: float, hi: float) -> tuple[float, float]:
    """Mean and variance of ``N(mu, sigma^2)`` truncated to ``(lo, hi)``, in log space."""
    _, m1, m2, _, _ = _moments_about(0.0, (lo - mu) / sigma, (hi - mu) / sigma)
    return mu + sigma * m1, sigma * sigma * (m2 - m1 * m1)


def _moment_gap(eta: np.ndarray, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gap ``(E x, E x^2 - 1)`` and its Jacobian ``Cov(x, x^2)`` at natural ``eta``."""
    s2 = -0.5 / eta[1]
    s, mu = math.sqrt(s2), eta[0] * s2
    lo, hi = (a - mu) / s, (b - mu) / s
    # about the bound nearest the mass: about mu, a fit far beyond a bound cancels
    c = lo if lo > 0 else hi if hi < 0 else 0.0
    _, w, m2, m3, m4 = _moments_about(c, lo, hi)
    k2, k3 = m2 - w * w, m3 - 3 * w * m2 + 2 * w ** 3
    k4 = m4 - 4 * w * m3 + 6 * w * w * m2 - 3 * w ** 4
    nu = (a if c > 0 else b if c < 0 else mu) + s * w  # E x
    cov = s2 * (2 * nu * k2 + s * k3)
    var2 = s2 * (4 * nu * (nu * k2 + s * k3) + s2 * (k4 - k2 * k2))
    return np.array([nu, nu * nu + s2 * k2 - 1.0]), np.array([[s2 * k2, cov], [cov, var2]])


def fit_truncated_normal(mean: float, var: float, lo: float, hi: float) -> tuple[float, float]:
    """``(mu, sigma)`` whose normal, truncated to ``(lo, hi)``, has this mean and variance.

    On data scaled to mean 0 and variance 1, the natural parameters ``eta =
    (mu / sigma^2, -1 / (2 sigma^2))`` minimise the strictly convex
    ``A(eta) - eta_2``: gradient the moment gap, Hessian ``Cov(x, x^2)``
    (Wainwright & Jordan 2008, section 3). Damped Newton keeps ``eta_2 < 0``
    and stops on the Newton decrement or when no step shrinks the gap. A gap
    left above ``_FIT_GAP`` raises :class:`NoSolution`: the moments are
    flatter than any truncated normal on ``(lo, hi)``.
    """
    if not (var > 0 and lo < mean < hi):
        raise DomainError("need a positive variance and lo < mean < hi")
    sd = math.sqrt(var)
    a, b = (lo - mean) / sd, (hi - mean) / sd
    eta = np.array([0.0, -0.5])
    gap, hess = _moment_gap(eta, a, b)
    for _ in range(_FIT_STEPS):
        step = np.linalg.solve(hess, -gap)
        converged = abs(gap @ step) <= _FIT_TOL
        for t in 0.5 ** np.arange(60):  # 2**-59: below the resolution of eta
            trial = eta + t * step
            if trial[1] < 0:
                new_gap, new_hess = _moment_gap(trial, a, b)
                if converged or new_gap @ new_gap < gap @ gap:
                    break
        else:
            break
        eta, gap, hess = trial, new_gap, new_hess
        if converged:
            break
    if not np.abs(gap).max() <= _FIT_GAP:
        raise NoSolution(f"moments flatter than any truncated normal on ({lo}, {hi})")
    s2 = -0.5 / eta[1]
    return mean + sd * eta[0] * s2, sd * math.sqrt(s2)


def bc_truncated_uni(p: TruncGaussianUni, q: TruncGaussianUni) -> DivergenceValue:
    """Distance between two truncated univariate normals.

    Closed form: the untruncated distance, plus half the log of each
    truncation probability, minus the log probability that the mixture
    normal ``N(nu, varsigma^2)`` lies in the common support. Disjoint
    supports give a zero coefficient and infinite distance.
    """
    if (logs := _uni_log_masses(p, q)) is None:
        return DivergenceValue(0.0, math.inf)
    log_p, log_q, log_overlap = logs
    base = bc_normal_uni(p.parent(), q.parent()).distance
    return DivergenceValue.from_distance(base + 0.5 * (log_p + log_q) - log_overlap)


def mvn_overlap_params(p: TruncGaussianMulti,
                       q: TruncGaussianMulti) -> MvnOverlapParams | None:
    """Common box and mixture parameters, or ``None`` if any axis is disjoint.

    ``S`` is assembled from the summed precisions (symmetric in the inputs
    by construction) and ``m`` is the precision-weighted mean.
    """
    lo = np.maximum(p.lower, q.lower)
    hi = np.minimum(p.upper, q.upper)
    if not np.all(lo < hi):
        return None
    prec_p = np.linalg.inv(p.cov)
    prec_q = np.linalg.inv(q.cov)
    prec_sum = prec_p + prec_q
    s_mat = np.linalg.inv(prec_sum)
    s_mat = 0.5 * (s_mat + s_mat.T)
    m_vec = np.linalg.solve(prec_sum, prec_p @ p.mu + prec_q @ q.mu)
    return MvnOverlapParams(lo, hi, m_vec, s_mat)


@dataclass(frozen=True)
class TruncatedMvnTerms:
    """Decomposition of the truncated multivariate distance.

    ``untruncated`` is the plain multivariate distance; ``prob_p`` /
    ``prob_q`` are the two box-normalization probabilities and
    ``prob_overlap`` the mixture-Gaussian mass of the common box.
    ``combined_error`` propagates the three probability error estimates
    into distance units.
    """

    untruncated: float
    prob_p: QuadResult
    prob_q: QuadResult
    prob_overlap: QuadResult
    distance: float
    combined_error: float


def truncated_mvn_terms(p: TruncGaussianMulti, q: TruncGaussianMulti,
                        cfg: QuadConfig = DEFAULT_CONFIG) -> TruncatedMvnTerms | None:
    """All terms of the truncated multivariate distance, or ``None`` if disjoint."""
    if p.k != q.k:
        raise DimensionMismatch(f"dimensions differ: {p.k} vs {q.k}")
    ov = mvn_overlap_params(p, q)
    if ov is None:
        return None
    base = bc_mvn(p.parent(), q.parent()).distance
    prob_p = mvn_rect_prob(p.parent(), p.lower, p.upper, cfg)
    prob_q = mvn_rect_prob(q.parent(), q.lower, q.upper, cfg)
    prob_ov = mvn_rect_prob(ov.mixture, ov.l, ov.u, cfg)
    dist = (base
            + 0.5 * (math.log(prob_p.value) + math.log(prob_q.value))
            - math.log(prob_ov.value))
    err = math.sqrt(
        (0.5 * prob_p.error_estimate / prob_p.value) ** 2
        + (0.5 * prob_q.error_estimate / prob_q.value) ** 2
        + (prob_ov.error_estimate / prob_ov.value) ** 2
    )
    return TruncatedMvnTerms(base, prob_p, prob_q, prob_ov, dist, err)


def bc_truncated_mvn(p: TruncGaussianMulti, q: TruncGaussianMulti,
                     cfg: QuadConfig = DEFAULT_CONFIG) -> DivergenceValue:
    """Distance between two truncated multivariate normals.

    Multivariate analogue of :func:`bc_truncated_uni`; the three box
    probabilities come from :func:`distsim.quadrature.mvn_rect_prob` and the
    result is deterministic for a fixed ``cfg.seed``. Any empty-overlap axis
    gives a zero coefficient and infinite distance.
    """
    terms = truncated_mvn_terms(p, q, cfg)
    if terms is None:
        return DivergenceValue(0.0, math.inf)
    return DivergenceValue.from_distance(terms.distance)


@dataclass(frozen=True)
class InequalityCheck:
    """Both sides of the truncation comparison and the resulting verdict.

    ``holds`` is True when the truncated distance is at least the
    untruncated one, equivalent to ``lhs >= rhs``. ``lhs`` and ``rhs`` may
    underflow to 0 far in a tail (past about 37 standard deviations in one
    dimension), so both checks decide ``holds`` on their logarithms.
    """

    lhs: float
    rhs: float
    holds: bool


def truncation_inequality_holds_uni(p: TruncGaussianUni,
                                    q: TruncGaussianUni) -> InequalityCheck:
    """Compare ``sqrt(Z_p Z_q)`` against the mixture mass of the overlap.

    ``lhs >= rhs`` exactly when truncation increased the distance relative
    to the untruncated normals. Requires overlapping supports.
    """
    if (logs := _uni_log_masses(p, q)) is None:
        raise DomainError("supports do not overlap; the comparison is undefined")
    log_p, log_q, log_overlap = logs
    log_lhs = 0.5 * (log_p + log_q)
    return InequalityCheck(math.exp(log_lhs), math.exp(log_overlap), log_lhs >= log_overlap)


def truncation_inequality_holds_mvn(p: TruncGaussianMulti, q: TruncGaussianMulti,
                                    cfg: QuadConfig = DEFAULT_CONFIG) -> InequalityCheck:
    """Multivariate analogue of the univariate truncation comparison.

    ``lhs = sqrt(P_p P_q)`` and ``rhs`` is the mixture-Gaussian mass of the
    common box, so again ``lhs >= rhs`` iff the truncated distance is at
    least the untruncated one.
    """
    terms = truncated_mvn_terms(p, q, cfg)
    if terms is None:
        raise DomainError("supports do not overlap; the comparison is undefined")
    log_lhs = 0.5 * (math.log(terms.prob_p.value) + math.log(terms.prob_q.value))
    rhs = terms.prob_overlap.value
    return InequalityCheck(math.exp(log_lhs), rhs, log_lhs >= math.log(rhs))
