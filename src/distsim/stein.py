"""Numerical verification of covariance identities on joint densities.

For a joint density ``f(t, u)`` on a finite (or tail-clipped) square box
and a function ``h`` with ``E[h(Y)] = mu_Y``, define

    g(r, u) = (1 / f(r, u)) * (h(u) - mu_Y) * integral_r^b f(t, u) dt.

Then for any absolutely continuous ``c`` (with the product ``g f`` vanishing
at the upper edge)

    Cov[c(X), h(Y)] = E[c'(X) g(X, Y)],

a covariance identity that does not require normality. This module checks
that identity by quadrature, the bridge that ties covariance to the overlap
coefficient of the two marginals (through ``c(t) = t - sqrt(f_Y(t)/f_X(t))``),
and the three equivalent ways of writing the pricing equation
``p = E[m x]`` with ``m = c(f)``.

All double integrals run on tensor trapezoid grids; every reported value
carries an error estimate obtained by halving the grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .core import ScalarFn, ScalarFn2
from .divergence import DivergenceValue
from .errors import (
    BoundaryConditionViolated,
    DensityUnderflow,
    DomainError,
    InvalidDistribution,
    MomentMismatch,
)
from .quadrature import DEFAULT_CONFIG, QuadConfig, _on_arrays, integrate_1d

__all__ = [
    "JointDensitySpec",
    "IdentityReport",
    "PriceReport",
    "g_from_joint",
    "verify_stein",
    "verify_distance_covariance",
    "price_asset",
]

#: default tensor-grid resolution (error estimated on the half grid).
GRID_POINTS = 401
#: tolerance for the marginal spot-checks and the E[h(Y)] verification.
MOMENT_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class JointDensitySpec:
    """A joint density with its marginals, means, and a finite support box.

    The box is the square ``(a, b)^2``; densities with unbounded support
    must be clipped by the caller (the constructors below clip Gaussian
    pairs at ten standard deviations). Marginal consistency is spot-checked
    on construction: the joint integrated over one axis must reproduce the
    stated marginal at eight points per axis within 1e-4.
    """

    f_xy: ScalarFn2
    f_x: ScalarFn
    f_y: ScalarFn
    support: tuple[float, float]
    mu_x: float
    mu_y: float

    def __post_init__(self):
        a, b = self.support
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise DomainError("support must be a finite interval (a, b) with a < b")
        object.__setattr__(self, "support", (float(a), float(b)))
        object.__setattr__(self, "mu_x", float(self.mu_x))
        object.__setattr__(self, "mu_y", float(self.mu_y))
        probes = np.linspace(a, b, 10)[1:-1]
        for over, at, name, marginal, joint in (
                ("u", "t", "f_x", self.f_x, lambda u, p: _on_arrays(self.f_xy, p, u)),
                ("t", "u", "f_y", self.f_y, lambda t, p: _on_arrays(self.f_xy, t, p))):
            got = integrate_1d(lambda x: joint(*np.meshgrid(x, probes, indexing="ij")),
                               a, b).value
            for p, g, w in np.column_stack([probes, got, _on_arrays(marginal, probes)]).tolist():
                if abs(g - w) > MOMENT_TOL * max(1.0, abs(w)):
                    raise InvalidDistribution(f"joint integrated over {over} gives {g!r} at "
                                              f"{at}={p!r}, but {name} states {w!r}")

    @classmethod
    def bivariate_normal(cls, mu_x: float = 0.0, mu_y: float = 0.0,
                         sigma_x: float = 1.0, sigma_y: float = 1.0,
                         corr: float = 0.0,
                         clip_sigmas: float = 10.0) -> "JointDensitySpec":
        """Correlated normal pair, support clipped at ``clip_sigmas``.

        The clipped tail mass (below 8e-24 per side at the default ten
        sigmas) is the only approximation.
        """
        if not -1.0 < corr < 1.0:
            raise DomainError("corr must be strictly inside (-1, 1)")
        s = max(sigma_x, sigma_y)
        a = min(mu_x, mu_y) - clip_sigmas * s
        b = max(mu_x, mu_y) + clip_sigmas * s
        det = 1.0 - corr * corr
        norm = 1.0 / (2.0 * math.pi * sigma_x * sigma_y * math.sqrt(det))

        def joint(t, u):
            zt = (np.asarray(t, dtype=float) - mu_x) / sigma_x
            zu = (np.asarray(u, dtype=float) - mu_y) / sigma_y
            return norm * np.exp(-(zt * zt - 2.0 * corr * zt * zu + zu * zu)
                                 / (2.0 * det))

        def marg_x(t):
            zt = (np.asarray(t, dtype=float) - mu_x) / sigma_x
            return np.exp(-0.5 * zt * zt) / (sigma_x * math.sqrt(2.0 * math.pi))

        def marg_y(u):
            zu = (np.asarray(u, dtype=float) - mu_y) / sigma_y
            return np.exp(-0.5 * zu * zu) / (sigma_y * math.sqrt(2.0 * math.pi))

        return cls(joint, marg_x, marg_y, (a, b), mu_x, mu_y)

    @classmethod
    def independent(cls, f_x: ScalarFn, f_y: ScalarFn, support,
                    mu_x: float, mu_y: float) -> "JointDensitySpec":
        """Product joint of two independent marginals on a shared support."""

        def joint(t, u):
            return np.asarray(_on_arrays(f_x, np.asarray(t, dtype=float))
                              * _on_arrays(f_y, np.asarray(u, dtype=float)))

        return cls(joint, f_x, f_y, tuple(support), mu_x, mu_y)


@dataclass(frozen=True)
class IdentityReport:
    """Two sides of an identity with the absolute residual and error budget."""

    lhs: float
    rhs: float
    residual: float
    combined_error: float

    def __post_init__(self):
        if self.residual < 0:
            raise DomainError("residual must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PriceReport:
    """Three routes to the same price, plus the restricted decomposition.

    ``routes`` holds (direct expectation, mean/covariance split, derivative
    route); ``restricted_terms`` are the four addends of the
    density-ratio-restricted discount factor decomposition and
    ``restricted_total`` their sum, which should price the asset computed
    directly as ``restricted_direct``.
    """

    routes: tuple[float, float, float]
    max_residual: float
    combined_error: float
    restricted_terms: tuple[float, float, float, float]
    restricted_total: float
    restricted_direct: float

    def to_dict(self) -> dict:
        return asdict(self)


class _Grid:
    """Tensor grid with the joint density and reverse cumulative integrals."""

    def __init__(self, spec: JointDensitySpec, n: int):
        a, b = spec.support
        self.xs = np.linspace(a, b, n)
        tt, uu = np.meshgrid(self.xs, self.xs, indexing="ij")
        self.joint = np.maximum(_on_arrays(spec.f_xy, tt, uu), 0.0)
        cum = cumulative_trapezoid(self.joint, self.xs, axis=0, initial=0.0)
        # upper_tail[i, j] = integral of f(t, u_j) for t from xs[i] to b
        self.upper_tail = cum[-1][None, :] - cum

    def integral2(self, weight: np.ndarray) -> float:
        inner = np.trapezoid(weight, self.xs, axis=1)
        return float(np.trapezoid(inner, self.xs, axis=0))

    def expect(self, weight: np.ndarray) -> float:
        return self.integral2(weight * self.joint)


def _two_resolution(spec: JointDensitySpec, compute, n: int = GRID_POINTS):
    """``compute`` on the fine grid and its distance to the half grid's value."""
    fine = compute(_Grid(spec, n))
    coarse = compute(_Grid(spec, n // 2 + 1))
    err = abs(fine - coarse)
    return fine, err


def _marginal_overlap(spec: JointDensitySpec, cfg: QuadConfig) -> float:
    """Overlap coefficient ``integral sqrt(f_X f_Y)`` of the two marginals."""
    rho = integrate_1d(lambda t: np.sqrt(np.maximum(_on_arrays(spec.f_x, t), 0.0)
                                         * np.maximum(_on_arrays(spec.f_y, t), 0.0)),
                       *spec.support, cfg).value
    return DivergenceValue.from_coefficient(rho).coefficient


def _check_mean_h(spec: JointDensitySpec, h: ScalarFn, cfg: QuadConfig) -> None:
    """Raise :class:`MomentMismatch` unless ``E[h(Y)] = mu_Y`` to 1e-4."""
    a, b = spec.support
    e_h = integrate_1d(lambda y: _on_arrays(h, y) * _on_arrays(spec.f_y, y), a, b, cfg).value
    if abs(e_h - spec.mu_y) > MOMENT_TOL:
        raise MomentMismatch(
            f"E[h(Y)] = {e_h!r} but mu_Y = {spec.mu_y!r}; the identity assumes equality"
        )


def g_from_joint(spec: JointDensitySpec, h: ScalarFn, r: float, u: float,
                 cfg: QuadConfig = DEFAULT_CONFIG, form: str = "upper") -> float:
    """The identity kernel ``g(r, u)`` by direct quadrature.

    ``form="upper"`` integrates the joint from ``r`` to the upper edge,
    ``form="lower"`` from the lower edge to ``r`` with the opposite sign.
    The two forms agree once integrated against ``u`` (their pointwise gap
    is ``(h(u) - mu_Y) f_Y(u) / f(r, u)``, which integrates to zero because
    ``E[h(Y)] = mu_Y``); that mean condition is verified here to 1e-4. At
    the closed edge the form integrates over (``r = b`` for ``"upper"``,
    ``r = a`` for ``"lower"``) the kernel is exactly 0.
    """
    a, b = spec.support
    if not a <= r <= b:
        raise DomainError(f"r={r!r} outside the support")
    if form not in ("upper", "lower"):
        raise DomainError(f"form must be 'upper' or 'lower', got {form!r}")
    _check_mean_h(spec, h, cfg)
    lo, hi, sign = (r, b, 1.0) if form == "upper" else (a, r, -1.0)
    if lo == hi:
        return 0.0
    dens = float(spec.f_xy(r, u))
    if dens <= 1e-300:
        raise DensityUnderflow(f"joint density underflows at ({r!r}, {u!r})")

    def section(t: np.ndarray) -> np.ndarray:
        return _on_arrays(spec.f_xy, t, np.full_like(t, u))

    part = integrate_1d(section, lo, hi, cfg).value
    return sign * (float(h(u)) - spec.mu_y) * part / dens


def _check_boundary(grid: _Grid, h_vals: np.ndarray, mu_y: float) -> None:
    edge = np.max(np.abs(h_vals - mu_y) * grid.upper_tail[-2, :])
    if edge > 1e-6:
        raise BoundaryConditionViolated(
            f"g*f does not vanish at the upper support edge (level {edge:.3e}); "
            "widen the clipping box"
        )


def verify_stein(spec: JointDensitySpec, c: ScalarFn, c_prime: ScalarFn,
                 h: ScalarFn, cfg: QuadConfig = DEFAULT_CONFIG) -> IdentityReport:
    """Check ``Cov[c(X), h(Y)] = E[c'(X) g(X, Y)]`` by double quadrature.

    The right side uses the order-interchanged form
    ``integral c'(r) (h(u) - mu_Y) [integral_r^b f(t, u) dt] dr du`` so the
    kernel ``g`` never needs to be formed pointwise.
    """
    _check_mean_h(spec, h, cfg)

    def sides_on(grid: _Grid) -> np.ndarray:
        c_vals = _on_arrays(c, grid.xs)
        h_vals = _on_arrays(h, grid.xs)
        e_c = grid.expect(c_vals[:, None] * np.ones_like(grid.joint))
        e_hy = grid.expect(np.ones_like(grid.joint) * h_vals[None, :])
        lhs = grid.expect(c_vals[:, None] * h_vals[None, :]) - e_c * e_hy
        cp_vals = _on_arrays(c_prime, grid.xs)
        _check_boundary(grid, h_vals, spec.mu_y)
        kernel = cp_vals[:, None] * (h_vals[None, :] - spec.mu_y) * grid.upper_tail
        return np.array([lhs, grid.integral2(kernel)])

    fine, errs = _two_resolution(spec, sides_on)
    lhs, rhs = float(fine[0]), float(fine[1])
    return IdentityReport(lhs, rhs, abs(lhs - rhs), float(errs[0] + errs[1]))


def _ratio_and_derivative(spec: JointDensitySpec):
    a, b = spec.support
    step = (b - a) * 1e-6

    def ratio(t):
        t = np.asarray(t, dtype=float)
        fx = np.asarray(_on_arrays(spec.f_x, t), dtype=float)
        fy = np.asarray(_on_arrays(spec.f_y, t), dtype=float)
        if np.any(fx <= 1e-300):
            raise DensityUnderflow("f_X vanishes inside the support")
        return np.sqrt(np.maximum(fy, 0.0) / fx)

    def ratio_prime(t):
        t = np.asarray(t, dtype=float)
        lo = np.maximum(t - step, a)
        hi = np.minimum(t + step, b)
        return (ratio(hi) - ratio(lo)) / (hi - lo)

    return ratio, ratio_prime


def verify_distance_covariance(spec: JointDensitySpec,
                               cfg: QuadConfig = DEFAULT_CONFIG,
                               h: ScalarFn | None = None,
                               ) -> tuple[IdentityReport, IdentityReport]:
    """Check the two covariance/overlap bridge equations.

    With ``c(t) = t - sqrt(f_Y(t)/f_X(t))`` and ``rho`` the overlap
    coefficient of the marginals:

        Cov[c(X), h(Y)] = Cov(X, h(Y)) - E[sqrt(f_Y(X)/f_X(X)) h(Y)]
                          + mu_Y * rho
        Cov(X, h(Y)) + mu_Y * rho = E[c'(X) g(X, Y)]
                                    + E[sqrt(f_Y(X)/f_X(X)) h(Y)]

    ``h`` defaults to the identity. Returns one report per equation.
    """
    if h is None:
        h = lambda u: u  # noqa: E731 - identity default
    ratio, ratio_prime = _ratio_and_derivative(spec)
    rho = _marginal_overlap(spec, cfg)

    def pieces_on(grid: _Grid) -> np.ndarray:
        xs = grid.xs
        h_vals = _on_arrays(h, xs)
        r_vals = ratio(xs)
        c_vals = xs - r_vals
        cp_vals = 1.0 - ratio_prime(xs)
        ones = np.ones_like(grid.joint)
        e_hy = grid.expect(ones * h_vals[None, :])
        e_x = grid.expect(xs[:, None] * ones)
        e_c = grid.expect(c_vals[:, None] * ones)
        cov_c_h = grid.expect(c_vals[:, None] * h_vals[None, :]) - e_c * e_hy
        cov_x_h = grid.expect(xs[:, None] * h_vals[None, :]) - e_x * e_hy
        e_ratio_h = grid.expect(r_vals[:, None] * h_vals[None, :])
        stein_term = grid.integral2(
            cp_vals[:, None] * (h_vals[None, :] - spec.mu_y) * grid.upper_tail
        )
        return np.array([cov_c_h, cov_x_h, e_ratio_h, stein_term])

    fine, errs = _two_resolution(spec, pieces_on)
    cov_c_h, cov_x_h, e_ratio_h, stein_term = fine

    lhs1, rhs1 = cov_c_h, cov_x_h - e_ratio_h + spec.mu_y * rho
    rep1 = IdentityReport(float(lhs1), float(rhs1), float(abs(lhs1 - rhs1)),
                          float(errs[0] + errs[1] + errs[2]))
    lhs2, rhs2 = cov_x_h + spec.mu_y * rho, stein_term + e_ratio_h
    rep2 = IdentityReport(float(lhs2), float(rhs2), float(abs(lhs2 - rhs2)),
                          float(errs[1] + errs[2] + errs[3]))
    return rep1, rep2


def price_asset(spec: JointDensitySpec, c: ScalarFn, c_prime: ScalarFn,
                cfg: QuadConfig = DEFAULT_CONFIG) -> PriceReport:
    """Price ``p = E[c(f) x]`` three ways and decompose the restricted case.

    The first variable of ``spec`` is the pricing factor ``f``, the second
    the payoff ``x``. Routes: the direct expectation; mean-times-mean plus
    covariance; and the derivative route that replaces the covariance with
    ``E[c'(f) g(f, x)]``. The restricted decomposition uses
    ``m = f - sqrt(f_x(f)/f_f(f))`` (payoff marginal over factor marginal,
    the same ratio the bridge equations use) and splits the price into four
    terms whose sum must reprice the asset.
    """
    ratio, _ = _ratio_and_derivative(spec)

    def routes_on(grid: _Grid) -> np.ndarray:
        xs = grid.xs
        c_vals = _on_arrays(c, xs)
        cp_vals = _on_arrays(c_prime, xs)
        ones = np.ones_like(grid.joint)
        e_c = grid.expect(c_vals[:, None] * ones)
        e_x = grid.expect(ones * xs[None, :])
        direct = grid.expect(c_vals[:, None] * xs[None, :])
        cov = direct - e_c * e_x
        _check_boundary(grid, xs, spec.mu_y)
        stein_term = grid.integral2(
            cp_vals[:, None] * (xs[None, :] - spec.mu_y) * grid.upper_tail
        )
        r_vals = ratio(xs)
        cr_vals = xs - r_vals
        e_cr = grid.expect(cr_vals[:, None] * ones)
        e_f = grid.expect(xs[:, None] * ones)
        cov_fx = grid.expect(xs[:, None] * xs[None, :]) - e_f * e_x
        e_ratio_x = grid.expect(r_vals[:, None] * xs[None, :])
        restricted_direct = grid.expect(cr_vals[:, None] * xs[None, :])
        return np.array([direct, e_c * e_x + cov, e_c * e_x + stein_term,
                         e_cr * e_x, cov_fx, e_ratio_x, restricted_direct])

    fine, errs = _two_resolution(spec, routes_on)
    rho = _marginal_overlap(spec, cfg)

    routes = (float(fine[0]), float(fine[1]), float(fine[2]))
    max_res = max(abs(routes[0] - routes[1]), abs(routes[0] - routes[2]),
                  abs(routes[1] - routes[2]))
    terms = (float(fine[3]), float(fine[4]), float(spec.mu_y * rho),
             float(-fine[5]))
    return PriceReport(
        routes=routes,
        max_residual=float(max_res),
        combined_error=float(errs[:3].sum()),
        restricted_terms=terms,
        restricted_total=float(sum(terms)),
        restricted_direct=float(fine[6]),
    )
