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

All double integrals are trapezoid bilinear forms on one tensor grid; every
reported value is the Richardson step from that grid and its
every-other-node subgrid, and its error estimate is the distance to the
same step one level coarser, from the every-other and every-fourth node
subgrids. The one-dimensional
integrals (marginal spot-checks, ``E[h(Y)]``, the overlap coefficient and
:func:`g_from_joint`) use :func:`~distsim.quadrature.integrate_1d` at its
fixed tolerances.
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
from .quadrature import _on_arrays, integrate_1d

__all__ = [
    "JointDensitySpec",
    "IdentityReport",
    "PriceReport",
    "g_from_joint",
    "verify_stein",
    "verify_distance_covariance",
    "price_asset",
]

#: tensor-grid nodes per axis; 4 * 100 + 1, so every second node (201 of them)
#: and every fourth (101) span the same box as the half and quarter grids.
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
    """Equal-spaced nodes ``xs`` with trapezoid weights ``w``, the joint on
    ``xs x xs`` and its reverse cumulative integrals over the first axis."""

    def __init__(self, xs: np.ndarray, joint: np.ndarray):
        self.xs, self.joint = xs, joint
        self.w = np.full(xs.size, (xs[-1] - xs[0]) / (xs.size - 1))
        self.w[[0, -1]] /= 2.0
        cum = cumulative_trapezoid(joint, xs, axis=0, initial=0.0)
        # upper_tail[i, j] = integral of f(t, u_j) for t from xs[i] to b
        self.upper_tail = cum[-1][None, :] - cum

    def expect(self, a, b=1.0) -> float:
        """``E[a(X) b(Y)]`` from node values; a scalar is a constant function."""
        return float((a * self.w) @ self.joint @ (b * self.w))

    def stein(self, c_prime, h, mu_y: float) -> float:
        """``integral c'(r) (h(u) - mu_Y) [integral_r^b f(t, u) dt] dr du``."""
        return float((c_prime * self.w) @ self.upper_tail @ ((h - mu_y) * self.w))


def _richardson(spec: JointDensitySpec, compute):
    """``compute`` on one evaluation of the joint, as the Richardson step
    ``R(fine, half) = (4 fine - half) / 3`` that cancels the trapezoid's
    ``O(h^2)`` term, and its error estimate ``|R(fine, half) - R(half,
    quarter)|``; ``half`` and ``quarter`` use every second and every fourth
    node of the same grid."""
    xs = np.linspace(*spec.support, GRID_POINTS)
    joint = np.maximum(_on_arrays(spec.f_xy, *np.meshgrid(xs, xs, indexing="ij")), 0.0)
    fine, half, quarter = (compute(_Grid(xs[::s], joint[::s, ::s])) for s in (1, 2, 4))
    value = (4.0 * fine - half) / 3.0
    return value, abs(value - (4.0 * half - quarter) / 3.0)


def _marginal_overlap(spec: JointDensitySpec) -> float:
    """Overlap coefficient ``integral sqrt(f_X f_Y)`` of the two marginals."""
    rho = integrate_1d(lambda t: np.sqrt(np.maximum(_on_arrays(spec.f_x, t), 0.0)
                                         * np.maximum(_on_arrays(spec.f_y, t), 0.0)),
                       *spec.support).value
    return DivergenceValue.from_coefficient(rho).coefficient


def _check_mean_h(spec: JointDensitySpec, h: ScalarFn) -> None:
    """Raise :class:`MomentMismatch` unless ``E[h(Y)] = mu_Y`` to 1e-4."""
    a, b = spec.support
    e_h = integrate_1d(lambda y: _on_arrays(h, y) * _on_arrays(spec.f_y, y), a, b).value
    if abs(e_h - spec.mu_y) > MOMENT_TOL:
        raise MomentMismatch(
            f"E[h(Y)] = {e_h!r} but mu_Y = {spec.mu_y!r}; the identity assumes equality"
        )


def g_from_joint(spec: JointDensitySpec, h: ScalarFn, r: float, u,
                 form: str = "upper"):
    """The identity kernel ``g(r, u)`` by direct quadrature, ``u`` a scalar or an array.

    ``form="upper"`` integrates the joint from ``r`` to the upper edge,
    ``form="lower"`` from the lower edge to ``r`` with the opposite sign.
    The two forms agree once integrated against ``u`` (their pointwise gap
    is ``(h(u) - mu_Y) f_Y(u) / f(r, u)``, which integrates to zero because
    ``E[h(Y)] = mu_Y``); that mean condition is verified here to 1e-4, once
    per call. At the closed edge the form integrates over (``r = b`` for
    ``"upper"``, ``r = a`` for ``"lower"``) the kernel is exactly 0.

    Returns a float for a scalar ``u`` and an array of ``u``'s shape
    otherwise; every entry of ``u`` shares one vector-valued integral.
    """
    a, b = spec.support
    if not a <= r <= b:
        raise DomainError(f"r={r!r} outside the support")
    if form not in ("upper", "lower"):
        raise DomainError(f"form must be 'upper' or 'lower', got {form!r}")
    _check_mean_h(spec, h)
    us = np.asarray(u, dtype=float)
    flat = us.ravel()
    lo, hi, sign = (r, b, 1.0) if form == "upper" else (a, r, -1.0)
    if lo == hi:
        out = np.zeros(us.shape)
    else:
        dens = _on_arrays(spec.f_xy, np.full_like(flat, r), flat)
        if (dens <= 1e-300).any():
            at = float(flat[dens <= 1e-300][0])
            raise DensityUnderflow(f"joint density underflows at ({r!r}, {at!r})")

        def section(t: np.ndarray) -> np.ndarray:
            return _on_arrays(spec.f_xy, *np.meshgrid(t, flat, indexing="ij"))

        part = integrate_1d(section, lo, hi).value
        out = (sign * (_on_arrays(h, flat) - spec.mu_y) * part / dens).reshape(us.shape)
    return float(out) if out.ndim == 0 else out


def _check_boundary(grid: _Grid, h_vals: np.ndarray, mu_y: float) -> None:
    edge = np.max(np.abs(h_vals - mu_y) * grid.upper_tail[-2, :])
    if edge > 1e-6:
        raise BoundaryConditionViolated(
            f"g*f does not vanish at the upper support edge (level {edge:.3e}); "
            "widen the clipping box"
        )


def verify_stein(spec: JointDensitySpec, c: ScalarFn, c_prime: ScalarFn,
                 h: ScalarFn) -> IdentityReport:
    """Check ``Cov[c(X), h(Y)] = E[c'(X) g(X, Y)]`` by double quadrature.

    The right side uses the order-interchanged form
    ``integral c'(r) (h(u) - mu_Y) [integral_r^b f(t, u) dt] dr du`` so the
    kernel ``g`` never needs to be formed pointwise.
    """
    _check_mean_h(spec, h)

    def sides_on(grid: _Grid) -> np.ndarray:
        c_vals = _on_arrays(c, grid.xs)
        h_vals = _on_arrays(h, grid.xs)
        lhs = grid.expect(c_vals, h_vals) - grid.expect(c_vals) * grid.expect(1.0, h_vals)
        _check_boundary(grid, h_vals, spec.mu_y)
        return np.array([lhs, grid.stein(_on_arrays(c_prime, grid.xs), h_vals, spec.mu_y)])

    vals, errs = _richardson(spec, sides_on)
    lhs, rhs = float(vals[0]), float(vals[1])
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


def verify_distance_covariance(spec: JointDensitySpec, h: ScalarFn | None = None,
                               ) -> tuple[IdentityReport, IdentityReport]:
    """Check the two covariance/overlap bridge equations.

    With ``c(t) = t - sqrt(f_Y(t)/f_X(t))`` and ``rho`` the overlap
    coefficient of the marginals:

        Cov[c(X), h(Y)] = Cov(X, h(Y)) - E[sqrt(f_Y(X)/f_X(X)) h(Y)]
                          + mu_Y * rho
        Cov(X, h(Y)) + mu_Y * rho = E[c'(X) g(X, Y)]
                                    + E[sqrt(f_Y(X)/f_X(X)) h(Y)]

    ``h`` defaults to the identity, and ``E[h(Y)] = mu_Y`` is checked as in
    :func:`verify_stein`. Returns one report per equation.
    """
    if h is None:
        h = lambda u: u  # noqa: E731 - identity default
    _check_mean_h(spec, h)
    ratio, ratio_prime = _ratio_and_derivative(spec)
    rho = _marginal_overlap(spec)

    def pieces_on(grid: _Grid) -> np.ndarray:
        xs = grid.xs
        h_vals = _on_arrays(h, xs)
        r_vals = ratio(xs)
        c_vals = xs - r_vals
        e_hy = grid.expect(1.0, h_vals)
        cov_c_h = grid.expect(c_vals, h_vals) - grid.expect(c_vals) * e_hy
        cov_x_h = grid.expect(xs, h_vals) - grid.expect(xs) * e_hy
        stein_term = grid.stein(1.0 - ratio_prime(xs), h_vals, spec.mu_y)
        return np.array([cov_c_h, cov_x_h, grid.expect(r_vals, h_vals), stein_term])

    vals, errs = _richardson(spec, pieces_on)
    cov_c_h, cov_x_h, e_ratio_h, stein_term = vals

    lhs1, rhs1 = cov_c_h, cov_x_h - e_ratio_h + spec.mu_y * rho
    rep1 = IdentityReport(float(lhs1), float(rhs1), float(abs(lhs1 - rhs1)),
                          float(errs[0] + errs[1] + errs[2]))
    lhs2, rhs2 = cov_x_h + spec.mu_y * rho, stein_term + e_ratio_h
    rep2 = IdentityReport(float(lhs2), float(rhs2), float(abs(lhs2 - rhs2)),
                          float(errs[1] + errs[2] + errs[3]))
    return rep1, rep2


def price_asset(spec: JointDensitySpec, c: ScalarFn, c_prime: ScalarFn) -> PriceReport:
    """Price ``p = E[c(f) x]`` three ways and decompose the restricted case.

    The first variable of ``spec`` is the pricing factor ``f``, the second
    the payoff ``x``. Routes: the direct expectation; mean-times-mean plus
    covariance; and the derivative route that replaces the covariance with
    ``E[c'(f) g(f, x)]``. The restricted decomposition uses
    ``m = f - sqrt(f_x(f)/f_f(f))`` (payoff marginal over factor marginal,
    the same ratio the bridge equations use) and splits the price into four
    terms whose sum must reprice the asset. The payoff mean ``E[x]`` must
    equal ``mu_Y`` to 1e-4, as the derivative route assumes.
    """
    _check_mean_h(spec, lambda x: x)
    ratio, _ = _ratio_and_derivative(spec)

    def routes_on(grid: _Grid) -> np.ndarray:
        xs = grid.xs
        c_vals = _on_arrays(c, xs)
        e_c, e_x = grid.expect(c_vals), grid.expect(1.0, xs)
        direct = grid.expect(c_vals, xs)
        cov = direct - e_c * e_x
        _check_boundary(grid, xs, spec.mu_y)
        stein_term = grid.stein(_on_arrays(c_prime, xs), xs, spec.mu_y)
        r_vals = ratio(xs)
        cr_vals = xs - r_vals
        cov_fx = grid.expect(xs, xs) - grid.expect(xs) * e_x
        return np.array([direct, e_c * e_x + cov, e_c * e_x + stein_term,
                         grid.expect(cr_vals) * e_x, cov_fx, grid.expect(r_vals, xs),
                         grid.expect(cr_vals, xs)])

    vals, errs = _richardson(spec, routes_on)
    rho = _marginal_overlap(spec)

    routes = (float(vals[0]), float(vals[1]), float(vals[2]))
    max_res = max(abs(routes[0] - routes[1]), abs(routes[0] - routes[2]),
                  abs(routes[1] - routes[2]))
    terms = (float(vals[3]), float(vals[4]), float(spec.mu_y * rho),
             float(-vals[5]))
    return PriceReport(
        routes=routes,
        max_residual=float(max_res),
        combined_error=float(errs[:3].sum()),
        restricted_terms=terms,
        restricted_total=float(sum(terms)),
        restricted_direct=float(vals[6]),
    )
