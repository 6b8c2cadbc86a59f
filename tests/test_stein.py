"""Covariance identities, the overlap bridge, and pricing routes."""

import dataclasses
import math

import numpy as np
import pytest

from distsim import (
    BoundaryConditionViolated,
    DensityUnderflow,
    DomainError,
    GaussianUni,
    IdentityReport,
    InvalidDistribution,
    JointDensitySpec,
    MomentMismatch,
    NotADensity,
    bc_normal_uni,
    g_from_joint,
    integrate_1d,
    price_asset,
    verify_distance_covariance,
    verify_stein,
)
from distsim import stein

from oracles import normal_pdf, quad_ref

IDENTITY = lambda u: u  # noqa: E731
ONES = lambda t: np.ones_like(np.asarray(t, dtype=float))  # noqa: E731


def bound(rep):
    return max(1e-3, 3 * rep.combined_error)


def uniform_square() -> JointDensitySpec:
    """Independent uniforms on (0, 1): the marginals are consistent, but
    ``g f`` does not vanish at the upper edge, so the identity's premise fails."""
    uniform = lambda x: np.where((np.asarray(x) >= 0) & (np.asarray(x) <= 1),  # noqa: E731
                                 1.0, 0.0)
    return JointDensitySpec.independent(uniform, uniform, (0.0, 1.0), 0.5, 0.5)


class TestJointDensitySpec:
    def test_marginal_consistency_enforced(self):
        wrong_marginal = lambda t: normal_pdf(t, 2.0, 1.0)  # noqa: E731
        with pytest.raises(InvalidDistribution):
            JointDensitySpec(
                lambda t, u: normal_pdf(t) * normal_pdf(u),
                wrong_marginal, normal_pdf, (-10.0, 10.0), 0.0, 0.0,
            )

    def test_support_must_be_finite(self):
        with pytest.raises(DomainError):
            JointDensitySpec(lambda t, u: 0.0, normal_pdf, normal_pdf,
                             (-math.inf, 10.0), 0.0, 0.0)

    def test_bivariate_normal_constructor(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.4)
        assert spec.mu_x == 0.0 and spec.mu_y == 0.0
        assert spec.f_xy(0.0, 0.0) > 0


class TestGFromJoint:
    def test_univariate_classical_constant(self):
        # for the standard normal and h(t)=t the kernel is the variance:
        # integral_r^b t phi(t) dt / phi(r) == 1 for every r
        for r in (-1.5, -0.3, 0.0, 0.7, 2.0):
            tail = quad_ref(lambda t: t * normal_pdf(t), r, 12.0)
            assert tail / float(normal_pdf(r)) == pytest.approx(1.0, abs=1e-6)

    def test_independent_factorization(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.0)
        for r, u in ((0.0, 1.0), (0.5, -0.7), (-1.0, 0.3)):
            got = g_from_joint(spec, IDENTITY, r, u)
            # (u - mu_Y) (1 - F_X(r)) / f_X(r)
            tail = quad_ref(normal_pdf, r, 10.0)
            want = u * tail / float(normal_pdf(r))
            assert got == pytest.approx(want, abs=1e-8)

    def test_correlated_against_fine_grid(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.5)
        rs = np.linspace(-1.0, 1.0, 5)
        us = np.linspace(-1.0, 1.0, 5)
        for r in rs:
            ts = np.linspace(r, spec.support[1], 40_001)
            for u in us:
                got = g_from_joint(spec, IDENTITY, float(r), float(u))
                dens = np.asarray(spec.f_xy(ts, np.full_like(ts, u)))
                want = float(u * np.trapezoid(dens, ts) / spec.f_xy(r, u))
                assert got == pytest.approx(want, abs=2e-6)

    def test_upper_minus_lower_equals_marginal_term(self):
        # the two integral forms differ by (h(u)-mu_Y) f_Y(u) / f(r,u)
        spec = JointDensitySpec.bivariate_normal(corr=0.5)
        for r, u in ((0.3, 0.7), (-0.5, 1.2), (0.0, -0.4)):
            upper = g_from_joint(spec, IDENTITY, r, u)
            lower = g_from_joint(spec, IDENTITY, r, u, form="lower")
            gap = u * float(spec.f_y(u)) / float(spec.f_xy(r, u))
            assert upper - lower == pytest.approx(gap, abs=1e-7)

    def test_integrated_forms_agree(self):
        # integrating f*g over u makes the two forms coincide
        spec = JointDensitySpec.bivariate_normal(corr=0.6)
        a, b = spec.support
        for r in (-0.5, 0.2):
            up, low = (integrate_1d(
                lambda u: spec.f_xy(r, u) * g_from_joint(spec, IDENTITY, r, u, form=form),
                a, b).value for form in ("upper", "lower"))
            assert up == pytest.approx(low, abs=1e-10)

    def test_array_matches_scalar_calls(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.5)
        us = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        for form in ("upper", "lower"):
            got = g_from_joint(spec, IDENTITY, 0.3, us, form=form)
            want = [g_from_joint(spec, IDENTITY, 0.3, float(u), form=form) for u in us.ravel()]
            assert got.shape == us.shape
            assert np.allclose(got.ravel(), want, rtol=1e-14, atol=0.0)
        assert isinstance(g_from_joint(spec, IDENTITY, 0.3, 0.5), float)
        assert np.array_equal(g_from_joint(spec, IDENTITY, spec.support[1], us), np.zeros((3, 4)))

    def test_one_mean_check_and_one_section_integral_per_call(self, monkeypatch):
        spec = JointDensitySpec.bivariate_normal(corr=0.6)
        calls = []

        def counted(f, a, b):
            calls.append((a, b))
            return integrate_1d(f, a, b)

        monkeypatch.setattr(stein, "integrate_1d", counted)
        g_from_joint(spec, IDENTITY, 0.2, np.linspace(-3.0, 3.0, 50))
        assert calls == [spec.support, (0.2, spec.support[1])]

    def test_zero_at_the_closed_edge(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.6)
        a, b = spec.support
        assert b == 10.0
        assert g_from_joint(spec, IDENTITY, b, 6.0) == 0.0
        assert g_from_joint(spec, IDENTITY, a, -6.0, form="lower") == 0.0
        assert g_from_joint(spec, IDENTITY, b - 0.5, 6.0) > 0.0

    def test_mean_mismatch_rejected(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.3)
        with pytest.raises(MomentMismatch):
            g_from_joint(spec, lambda u: u + 1.0, 0.0, 0.0)


class TestVerifyStein:
    def test_classical_linear_case(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.6)
        rep = verify_stein(spec, IDENTITY, ONES, IDENTITY)
        assert rep.lhs == pytest.approx(0.6, abs=1e-3)
        assert rep.rhs == pytest.approx(0.6, abs=1e-3)
        assert rep.residual <= bound(rep)

    def test_quadratic_gives_zero_covariance(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.6)
        rep = verify_stein(spec, lambda t: t * t, lambda t: 2.0 * t, IDENTITY)
        assert abs(rep.lhs) <= 1e-3
        assert rep.residual <= bound(rep)

    def test_independent_pair_vanishes(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.0)
        rep = verify_stein(spec, lambda t: t ** 3, lambda t: 3.0 * t * t,
                           IDENTITY)
        assert abs(rep.lhs) <= 1e-6 and abs(rep.rhs) <= 1e-6

    def test_nonlinear_h(self):
        # h(u) = u^3 / 3 has E[h(Y)] = 0 = mu_Y for a centered normal
        spec = JointDensitySpec.bivariate_normal(corr=0.5)
        rep = verify_stein(spec, IDENTITY, ONES, lambda u: u ** 3 / 3.0)
        assert rep.residual <= bound(rep)

    def test_battery_of_random_specs(self):
        rng = np.random.default_rng(9)
        cs = [
            (IDENTITY, ONES),
            (lambda t: t * t, lambda t: 2.0 * t),
            (lambda t: t ** 3 - t, lambda t: 3.0 * t * t - 1.0),
        ]
        for _ in range(10):
            corr = float(rng.uniform(-0.85, 0.85))
            c, cp = cs[int(rng.integers(len(cs)))]
            spec = JointDensitySpec.bivariate_normal(corr=corr)
            rep = verify_stein(spec, c, cp, IDENTITY)
            assert rep.residual <= bound(rep)

    def test_boundary_violation_detected(self):
        with pytest.raises(BoundaryConditionViolated):
            verify_stein(uniform_square(), IDENTITY, ONES, IDENTITY)

    def test_mean_mismatch_rejected(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.2)
        with pytest.raises(MomentMismatch):
            verify_stein(spec, IDENTITY, ONES, lambda u: u + 0.5)


class TestGrid:
    """The bilinear forms against nested trapezoid sums of the n x n integrand."""

    def test_forms_match_nested_trapezoid(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.6)
        rng = np.random.default_rng(17)
        xs = np.linspace(*spec.support, stein.GRID_POINTS)
        joint = spec.f_xy(*np.meshgrid(xs, xs, indexing="ij"))
        mu = 0.3
        for nodes, dens in ((xs, joint), (xs[::2], joint[::2, ::2])):
            grid = stein._Grid(nodes, dens)
            a, b, cp, h = (np.polynomial.Polynomial(rng.uniform(-1, 1, 4))(nodes)
                           for _ in range(4))
            want_e = np.trapezoid(np.trapezoid(a[:, None] * b[None, :] * dens, nodes,
                                               axis=1), nodes)
            # tail[i, j] = integral of f(t, u_j) for t from nodes[i] to b
            tail = np.array([np.trapezoid(dens[i:], nodes[i:], axis=0)
                             for i in range(nodes.size)])
            want_s = np.trapezoid(np.trapezoid(cp[:, None] * (h - mu)[None, :] * tail,
                                               nodes, axis=1), nodes)
            assert grid.expect(a, b) == pytest.approx(want_e, rel=1e-12)
            assert grid.stein(cp, h, mu) == pytest.approx(want_s, rel=1e-12)
            assert grid.expect(1.0) == pytest.approx(
                np.trapezoid(np.trapezoid(dens, nodes, axis=1), nodes), rel=1e-12)

    def test_one_joint_evaluation_per_identity(self):
        base = JointDensitySpec.bivariate_normal(corr=0.4)
        shapes = []

        def counting(t, u):
            shapes.append(np.shape(t))
            return base.f_xy(t, u)

        spec = JointDensitySpec(counting, base.f_x, base.f_y, base.support, 0.0, 0.0)
        shapes.clear()
        verify_stein(spec, IDENTITY, ONES, IDENTITY)
        assert shapes == [(stein.GRID_POINTS, stein.GRID_POINTS)]


class TestClosedForms:
    """Values the trapezoid grid reproduces to rounding, pinned at 1e-9."""

    def test_cubic_covariance(self):
        # Cov[X^3 - X, Y] = corr * (3 E[X^2] - 1) = 2 corr
        spec = JointDensitySpec.bivariate_normal(corr=0.5)
        rep = verify_stein(spec, lambda t: t ** 3 - t, lambda t: 3.0 * t * t - 1.0,
                           IDENTITY)
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        # the Stein side is second order on one grid; the Richardson step cancels that term
        assert rep.rhs == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("corr", [-0.64, -0.3, 0.0, 0.5, 0.9])
    def test_error_estimate_tracks_the_true_error(self, corr):
        # Cov[c(X), Y] for c = t, t^2, t^3 - t is corr, 0 and 2 corr
        spec = JointDensitySpec.bivariate_normal(corr=corr)
        for c, c_prime, exact in ((IDENTITY, ONES, corr),
                                  (lambda t: t * t, lambda t: 2.0 * t, 0.0),
                                  (lambda t: t ** 3 - t, lambda t: 3.0 * t * t - 1.0,
                                   2.0 * corr)):
            rep = verify_stein(spec, c, c_prime, IDENTITY)
            true = abs(rep.lhs - exact) + abs(rep.rhs - exact)
            assert true <= max(10 * rep.combined_error, 1e-13)
            assert rep.combined_error <= max(10 * true, 1e-13)

    def test_independent_product_joint(self):
        # scalar-only marginals: math.exp fails on arrays, so they are evaluated per node
        def f_x(t):
            return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

        def f_y(u):
            return math.exp(-0.5 * ((u - 1.0) / 1.5) ** 2) / (1.5 * math.sqrt(2.0 * math.pi))

        spec = JointDensitySpec.independent(f_x, f_y, (-12.0, 14.0), 0.0, 1.0)
        rep = verify_stein(spec, lambda t: t ** 3 - t, lambda t: 3.0 * t * t - 1.0,
                           IDENTITY)
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)
        # independence: Cov(X, Y) = 0, so the second bridge's lhs is mu_Y * rho = rho
        _, rep2 = verify_distance_covariance(spec)
        rho = bc_normal_uni(GaussianUni(0.0, 1.0), GaussianUni(1.0, 2.25)).coefficient
        assert rep2.lhs == pytest.approx(rho, abs=1e-9)

    def test_bridge_equal_marginals(self):
        rep1, rep2 = verify_distance_covariance(JointDensitySpec.bivariate_normal(corr=0.4))
        for value in (rep1.lhs, rep1.rhs, rep2.lhs):
            assert value == pytest.approx(0.4, abs=1e-9)

    def test_price_routes(self):
        # E[(1 + f^2/4) x] = mu_x + E[f^2] mu_x / 4 = 1.5 + 0.375
        spec = JointDensitySpec.bivariate_normal(mu_y=1.5, corr=0.7)
        rep = price_asset(spec, lambda t: 1.0 + 0.25 * np.asarray(t) ** 2,
                          lambda t: 0.5 * np.asarray(t))
        for route in rep.routes:
            assert route == pytest.approx(1.875, abs=1e-9)


class TestBridge:
    def test_equal_marginals_both_sides_equal_correlation(self):
        for corr in (0.25, 0.5, -0.4):
            spec = JointDensitySpec.bivariate_normal(corr=corr)
            rep1, rep2 = verify_distance_covariance(spec)
            # f_X = f_Y: rho = 1, c(t) = t - 1, both equations reduce to corr
            assert rep1.lhs == pytest.approx(corr, abs=1e-3)
            assert rep1.rhs == pytest.approx(corr, abs=1e-3)
            assert rep2.lhs == pytest.approx(corr, abs=1e-3)
            assert rep1.residual <= bound(rep1)
            assert rep2.residual <= bound(rep2)

    def test_shifted_marginals(self):
        spec = JointDensitySpec.bivariate_normal(mu_y=1.0, corr=0.5)
        rep1, rep2 = verify_distance_covariance(spec)
        assert rep1.residual <= bound(rep1)
        assert rep2.residual <= bound(rep2)

    def test_independent_equal_marginals_collapse_to_zero(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.0)
        rep1, _ = verify_distance_covariance(spec)
        assert abs(rep1.lhs) <= 1e-6
        assert abs(rep1.rhs) <= 1e-6

    def test_h_generalization(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.4)
        rep1, rep2 = verify_distance_covariance(spec, h=lambda u: u ** 3 / 3.0)
        assert rep1.residual <= bound(rep1)
        assert rep2.residual <= bound(rep2)

    def test_wrong_stated_mean_rejected(self):
        spec = JointDensitySpec.bivariate_normal(mu_y=1.0, corr=0.5)
        with pytest.raises(MomentMismatch):
            verify_distance_covariance(dataclasses.replace(spec, mu_y=0.5))

    def test_boundary_violation_detected(self):
        with pytest.raises(BoundaryConditionViolated):
            verify_distance_covariance(uniform_square())


class TestPriceAsset:
    def test_boundary_violation_detected(self):
        with pytest.raises(BoundaryConditionViolated):
            price_asset(uniform_square(), IDENTITY, ONES)

    def test_independent_price_is_product(self):
        spec = JointDensitySpec.bivariate_normal(mu_y=2.0, corr=0.0)
        c = lambda t: 1.0 + 0.5 * t * t  # noqa: E731
        cp = lambda t: 1.0 * t  # noqa: E731
        rep = price_asset(spec, c, cp)
        want = (1.0 + 0.5) * 2.0  # E[c(f)] * E[x]
        for route in rep.routes:
            assert route == pytest.approx(want, abs=1e-6)

    def test_linear_discount_prices_covariance(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.9)
        rep = price_asset(spec, IDENTITY, ONES)
        for route in rep.routes:
            assert route == pytest.approx(0.9, abs=1e-3)
        assert rep.max_residual <= max(1e-3, 3 * rep.combined_error)

    def test_constant_discount_kills_derivative_route(self):
        spec = JointDensitySpec.bivariate_normal(mu_y=1.5, corr=0.7)
        rep = price_asset(spec, lambda t: 2.0 + 0.0 * np.asarray(t),
                          lambda t: 0.0 * np.asarray(t))
        for route in rep.routes:
            assert route == pytest.approx(2.0 * 1.5, abs=1e-6)

    def test_restricted_decomposition_reprices(self):
        for corr in (-0.5, 0.0, 0.6):
            spec = JointDensitySpec.bivariate_normal(corr=corr)
            rep = price_asset(spec, IDENTITY, ONES)
            assert rep.restricted_total == pytest.approx(
                rep.restricted_direct, abs=max(1e-3, 3 * rep.combined_error)
            )

    def test_wrong_stated_mean_rejected(self):
        spec = JointDensitySpec.bivariate_normal(mu_y=1.0, corr=0.5)
        with pytest.raises(MomentMismatch):
            price_asset(dataclasses.replace(spec, mu_y=0.5), IDENTITY, ONES)

    def test_random_polynomial_battery(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            corr = float(rng.uniform(-0.9, 0.9))
            a0, a1, a2, a3 = rng.uniform(-1, 1, 4)
            spec = JointDensitySpec.bivariate_normal(corr=corr)

            def c(t, a0=a0, a1=a1, a2=a2, a3=a3):
                t = np.asarray(t, dtype=float)
                return a0 + a1 * t + a2 * t ** 2 + a3 * t ** 3

            def cp(t, a1=a1, a2=a2, a3=a3):
                t = np.asarray(t, dtype=float)
                return a1 + 2 * a2 * t + 3 * a3 * t ** 2

            rep = price_asset(spec, c, cp)
            assert rep.max_residual <= max(1e-3, 3 * rep.combined_error)


#: a correlated pair whose joint density underflows 6 sd off the diagonal
TIGHT = JointDensitySpec.bivariate_normal(corr=0.99)
#: f_X underflows inside the support, which the wider f_Y sets
NARROW_X = JointDensitySpec.bivariate_normal(sigma_x=0.1, sigma_y=1.0)

#: (call, error, message) for each input refused before an identity is judged
REFUSED = [
    (lambda: JointDensitySpec.bivariate_normal(corr=1.0), DomainError,
     "corr must be strictly inside (-1, 1)"),
    (lambda: IdentityReport(0.0, 0.0, -1.0, 0.0), DomainError, "residual must be >= 0"),
    (lambda: g_from_joint(TIGHT, IDENTITY, 20.0, 0.0), DomainError,
     "r=20.0 outside the support"),
    (lambda: g_from_joint(TIGHT, IDENTITY, 0.0, 0.0, form="middle"), DomainError,
     "form must be 'upper' or 'lower', got 'middle'"),
    (lambda: g_from_joint(TIGHT, IDENTITY, 0.0, 6.0), DensityUnderflow,
     "joint density underflows at (0.0, 6.0)"),
    (lambda: g_from_joint(TIGHT, IDENTITY, 0.0, np.array([0.5, 6.0, 7.0])), DensityUnderflow,
     "joint density underflows at (0.0, 6.0)"),
    (lambda: verify_distance_covariance(NARROW_X), DensityUnderflow,
     "f_X vanishes inside the support"),
    (lambda: price_asset(NARROW_X, IDENTITY, ONES), DensityUnderflow,
     "f_X vanishes inside the support"),
]


@pytest.mark.parametrize("call, error, message", REFUSED,
                         ids=[f"{e.__name__}-{i}" for i, (_, e, _) in enumerate(REFUSED)])
def test_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


#: f_X carries 1.00005 times a normal's mass: within the spot checks' 1e-4,
#: but not a density to the overlap coefficient's 1e-6; judged anyway, the bridge
#: reads a residual of 4.4e-5 against an error estimate near 1e-15
OFF_MASS = JointDensitySpec.independent(lambda t: 1.00005 * normal_pdf(t, 0.0, 1.0),
                                        lambda t: normal_pdf(t, 1.0, 1.0), (-12.0, 14.0),
                                        0.0, 1.0)


@pytest.mark.parametrize("call", [lambda: verify_distance_covariance(OFF_MASS),
                                  lambda: price_asset(OFF_MASS, IDENTITY, ONES)],
                         ids=["bridge", "pricing"])
def test_marginals_off_unit_mass_refused(call):
    with pytest.raises(NotADensity, match=r"^f integrates to 1\.0000[45]\d* over the support"):
        call()
