"""Independent oracles shared by the test modules.

Everything here is deliberately built from primitives the library does NOT
use for the corresponding result: arbitrary-precision series (mpmath) for
the normal CDF, dense trapezoid grids for overlap integrals, importance
sampling for multivariate coefficients, and closed forms from the
literature (bivariate orthant arcsine rule, Gauss-Hermite tables).
"""

import math

import mpmath
import numpy as np
from scipy import integrate

mpmath.mp.dps = 30


def cdf_series(x: float) -> float:
    """Standard normal CDF via arbitrary-precision series erf."""
    if x == math.inf:
        return 1.0
    if x == -math.inf:
        return 0.0
    return float(0.5 * (1 + mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2))))


def log_gauss_mass_mp(a: float, b: float) -> float:
    """``ln(Phi(b) - Phi(a))`` in 60-digit arithmetic.

    Above the mean the mass is taken as ``Phi(-a) - Phi(-b)``: far in the
    upper tail the plain difference is one of two numbers within 1e-300 of 1
    and cancels at any practical precision.
    """
    with mpmath.workdps(60):
        lo, hi = mpmath.mpf(a), mpmath.mpf(b)
        if a > 0:
            return float(mpmath.log(mpmath.ncdf(-lo) - mpmath.ncdf(-hi)))
        return float(mpmath.log(mpmath.ncdf(hi) - mpmath.ncdf(lo)))


def truncated_moments_mp(mu: float, sigma: float, lo: float, hi: float) -> tuple[float, float]:
    """Mean and variance of ``N(mu, sigma^2)`` truncated to ``(lo, hi)``, at 60 digits."""
    with mpmath.workdps(60):
        mu, sigma = mpmath.mpf(mu), mpmath.mpf(sigma)
        a, b = ((mpmath.mpf(x) - mu) / sigma for x in (lo, hi))
        mass = mpmath.ncdf(-a) - mpmath.ncdf(-b) if a > 0 else mpmath.ncdf(b) - mpmath.ncdf(a)
        pa, pb = (0 if mpmath.isinf(x) else mpmath.npdf(x) for x in (a, b))
        xa, xb = (0 if mpmath.isinf(x) else x * mpmath.npdf(x) for x in (a, b))
        shift = (pa - pb) / mass
        return float(mu + sigma * shift), float(sigma ** 2 * (1 + (xa - xb) / mass - shift ** 2))


def nln_density_mp(u: float, k: int, mu_y: float, sigma_y: float) -> float:
    """Density of ``X e^Y`` (``X ~ N(0, 1/k)``, ``Y ~ N(mu_y, sigma_y^2)``) at ``u``.

    The mixing integral over ``y`` is taken in 30-digit arithmetic on the
    whole line, split around the peak of its log-concave integrand, which is
    found by bisection on the slope. Left of the peak the integrand falls
    faster than a normal of its peak width ``w``; right of it no slower than
    one of width ``sigma_y``, so ``(peak - 40 w, peak + 15 sigma_y + 10 w)``
    holds all but a far smaller share than 1e-30.
    """
    with mpmath.workdps(30):
        k, mu, s, u = (mpmath.mpf(v) for v in (k, mu_y, sigma_y, u))
        a = k * u * u

        def phi(y):
            return -y - a / (2 * mpmath.exp(2 * y)) - (y - mu) ** 2 / (2 * s * s)

        def slope(y):
            return -1 + a * mpmath.exp(-2 * y) - (y - mu) / (s * s)

        lo = mu - s * s
        hi = lo + 1
        while slope(hi) > 0:
            hi += hi - lo
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        w = 1 / mpmath.sqrt(2 * a * mpmath.exp(-2 * lo) + 1 / (s * s))
        top = phi(lo)
        area = mpmath.quad(lambda y: mpmath.exp(phi(y) - top),
                           [lo - 40 * w, lo - 4 * w, lo + 4 * w, lo + 15 * s + 10 * w])
        return float(mpmath.sqrt(k) / (2 * mpmath.pi * s) * mpmath.exp(top) * area)


def quad_ref(f, a: float, b: float, points=None) -> float:
    """``integral_a^b f`` by QUADPACK (``scipy.integrate.quad``) at tight tolerances.

    ``f`` is called on scalars. ``points`` lists breakpoints inside a finite
    range; on an infinite one the range is split there instead.
    """
    g = lambda x: float(f(x))  # noqa: E731
    kw = dict(epsabs=1e-14, epsrel=1e-13, limit=500)
    if points and not (math.isfinite(a) and math.isfinite(b)):
        cuts = [a, *points, b]
        return sum(integrate.quad(g, lo, hi, **kw)[0] for lo, hi in zip(cuts, cuts[1:]))
    return integrate.quad(g, a, b, points=points, **kw)[0]


def orthant_bivariate(rho: float) -> float:
    """P(X<0, Y<0) for standard bivariate normal with correlation rho."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def normal_pdf(x, mu=0.0, var=1.0):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def trunc_normal_pdf(x, mu, var, lo, hi):
    """Truncated normal density, normalized with the series CDF."""
    sd = math.sqrt(var)
    z = cdf_series((hi - mu) / sd) - cdf_series((lo - mu) / sd)
    x = np.asarray(x, dtype=float)
    inside = (x >= lo) & (x <= hi)
    return np.where(inside, normal_pdf(x, mu, var) / z, 0.0)


def bc_distance_quad_uni(pdf_p, pdf_q, lo, hi, n=200_001) -> float:
    """-ln of the overlap integral on a dense 1-D trapezoid grid."""
    xs = np.linspace(lo, hi, n)
    f = np.sqrt(np.maximum(pdf_p(xs), 0.0) * np.maximum(pdf_q(xs), 0.0))
    rho = float(np.trapezoid(f, xs))
    return -math.log(rho)


def mvn_pdf_grid(xx, yy, mu, cov):
    prec = np.linalg.inv(cov)
    dx = xx - mu[0]
    dy = yy - mu[1]
    quad = prec[0, 0] * dx * dx + 2.0 * prec[0, 1] * dx * dy + prec[1, 1] * dy * dy
    det = float(np.linalg.det(cov))
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def bc_distance_grid_tmn(p, q, n=400) -> float:
    """Grid oracle for two truncated bivariate normals (distsim-free path).

    Each density is normalized by integrating the parent density over its
    own box on a dense grid, then sqrt(f_p f_q) is integrated over the
    common box. Nothing here touches the library's probability routines.
    """

    def box_mass(dist, n_box=600):
        xs = np.linspace(dist.lower[0], dist.upper[0], n_box)
        ys = np.linspace(dist.lower[1], dist.upper[1], n_box)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        f = mvn_pdf_grid(xx, yy, np.asarray(dist.mu), np.asarray(dist.cov))
        return float(np.trapezoid(np.trapezoid(f, ys, axis=1), xs, axis=0))

    zp = box_mass(p)
    zq = box_mass(q)
    lo = np.maximum(p.lower, q.lower)
    hi = np.minimum(p.upper, q.upper)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    fp = mvn_pdf_grid(xx, yy, np.asarray(p.mu), np.asarray(p.cov)) / zp
    fq = mvn_pdf_grid(xx, yy, np.asarray(q.mu), np.asarray(q.cov)) / zq
    rho = float(np.trapezoid(np.trapezoid(np.sqrt(fp * fq), ys, axis=1), xs, axis=0))
    return -math.log(rho)


def mvn_logpdf(x, mu, cov):
    k = len(mu)
    d = x - mu
    sol = np.linalg.solve(cov, d.T).T
    logdet = float(np.sum(np.log(np.linalg.eigvalsh(cov))))
    return -0.5 * (np.einsum("ij,ij->i", d, sol) + logdet + k * math.log(2 * math.pi))


def bc_coefficient_mc_mvn(p, q, n=200_000, seed=0):
    """Importance-sampled overlap coefficient E_p[sqrt(f_q/f_p)] and its SE."""
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(np.asarray(p.mu), np.asarray(p.cov), size=n)
    w = np.exp(0.5 * (mvn_logpdf(draws, np.asarray(q.mu), np.asarray(q.cov))
                      - mvn_logpdf(draws, np.asarray(p.mu), np.asarray(p.cov))))
    return float(w.mean()), float(w.std(ddof=1) / math.sqrt(n))


#: probabilists' 3-point Gauss-Hermite rule (weight = standard normal pdf).
GAUSS_HERMITE_3_NODES = (-math.sqrt(3.0), 0.0, math.sqrt(3.0))
GAUSS_HERMITE_3_WEIGHTS = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)
#: 2-point rule.
GAUSS_HERMITE_2_NODES = (-1.0, 1.0)
GAUSS_HERMITE_2_WEIGHTS = (0.5, 0.5)


def random_discrete(rng, k):
    """Random probability vector of length k (Dirichlet-flat)."""
    p = rng.dirichlet(np.ones(k))
    return p / p.sum()


def pca_scores(x) -> np.ndarray:
    """Scores of every principal component: ``u * s`` from the thin SVD of the
    column-centred data, by definition (rows stay the observations)."""
    x = np.asarray(x, dtype=float)
    u, s, _ = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    return u * s
