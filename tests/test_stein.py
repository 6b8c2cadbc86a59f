"""Covariance identities, the overlap bridge, and pricing routes."""

import math

import numpy as np
import pytest

from distsim import (
    BoundaryConditionViolated,
    DomainError,
    InvalidDistribution,
    JointDensitySpec,
    MomentMismatch,
    QuadConfig,
    g_from_joint,
    integrate_1d,
    price_asset,
    verify_distance_covariance,
    verify_stein,
)

from oracles import normal_pdf, quad_ref

CFG = QuadConfig(seed=8)

IDENTITY = lambda u: u  # noqa: E731
ONES = lambda t: np.ones_like(np.asarray(t, dtype=float))  # noqa: E731


def bound(rep):
    return max(1e-3, 3 * rep.combined_error)


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
            got = g_from_joint(spec, IDENTITY, r, u, CFG)
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
                got = g_from_joint(spec, IDENTITY, float(r), float(u), CFG)
                dens = np.asarray(spec.f_xy(ts, np.full_like(ts, u)))
                want = float(u * np.trapezoid(dens, ts) / spec.f_xy(r, u))
                assert got == pytest.approx(want, abs=2e-6)

    def test_upper_minus_lower_equals_marginal_term(self):
        # the two integral forms differ by (h(u)-mu_Y) f_Y(u) / f(r,u)
        spec = JointDensitySpec.bivariate_normal(corr=0.5)
        for r, u in ((0.3, 0.7), (-0.5, 1.2), (0.0, -0.4)):
            upper = g_from_joint(spec, IDENTITY, r, u, CFG)
            lower = g_from_joint(spec, IDENTITY, r, u, CFG, form="lower")
            gap = u * float(spec.f_y(u)) / float(spec.f_xy(r, u))
            assert upper - lower == pytest.approx(gap, abs=1e-7)

    def test_integrated_forms_agree(self):
        # integrating f*g over u makes the two forms coincide
        spec = JointDensitySpec.bivariate_normal(corr=0.6)
        a, b = spec.support
        for r in (-0.5, 0.2):
            up = integrate_1d(
                lambda u: float(spec.f_xy(r, u))
                * g_from_joint(spec, IDENTITY, r, u, CFG),
                a, b, QuadConfig(abs_tol=1e-6, max_evals=200_000),
            ).value
            low = integrate_1d(
                lambda u: float(spec.f_xy(r, u))
                * g_from_joint(spec, IDENTITY, r, u, CFG, form="lower"),
                a, b, QuadConfig(abs_tol=1e-6, max_evals=200_000),
            ).value
            assert up == pytest.approx(low, abs=1e-5)

    def test_zero_at_the_closed_edge(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.6)
        a, b = spec.support
        assert b == 10.0
        assert g_from_joint(spec, IDENTITY, b, 6.0, CFG) == 0.0
        assert g_from_joint(spec, IDENTITY, a, -6.0, CFG, form="lower") == 0.0
        assert g_from_joint(spec, IDENTITY, b - 0.5, 6.0, CFG) > 0.0

    def test_mean_mismatch_rejected(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.3)
        with pytest.raises(MomentMismatch):
            g_from_joint(spec, lambda u: u + 1.0, 0.0, 0.0, CFG)


class TestVerifyStein:
    def test_classical_linear_case(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.6)
        rep = verify_stein(spec, IDENTITY, ONES, IDENTITY, CFG)
        assert rep.lhs == pytest.approx(0.6, abs=1e-3)
        assert rep.rhs == pytest.approx(0.6, abs=1e-3)
        assert rep.residual <= bound(rep)

    def test_quadratic_gives_zero_covariance(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.6)
        rep = verify_stein(spec, lambda t: t * t, lambda t: 2.0 * t, IDENTITY, CFG)
        assert abs(rep.lhs) <= 1e-3
        assert rep.residual <= bound(rep)

    def test_independent_pair_vanishes(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.0)
        rep = verify_stein(spec, lambda t: t ** 3, lambda t: 3.0 * t * t,
                           IDENTITY, CFG)
        assert abs(rep.lhs) <= 1e-6 and abs(rep.rhs) <= 1e-6

    def test_nonlinear_h(self):
        # h(u) = u^3 / 3 has E[h(Y)] = 0 = mu_Y for a centered normal
        spec = JointDensitySpec.bivariate_normal(corr=0.5)
        rep = verify_stein(spec, IDENTITY, ONES, lambda u: u ** 3 / 3.0, CFG)
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
            rep = verify_stein(spec, c, cp, IDENTITY, CFG)
            assert rep.residual <= bound(rep)

    def test_boundary_violation_detected(self):
        # uniform joint: marginals are consistent but g*f does not vanish
        # at the upper edge, so the identity's premise fails
        uniform = lambda x: np.where((np.asarray(x) >= 0) & (np.asarray(x) <= 1),  # noqa: E731
                                     1.0, 0.0)
        spec = JointDensitySpec.independent(uniform, uniform, (0.0, 1.0), 0.5, 0.5)
        with pytest.raises(BoundaryConditionViolated):
            verify_stein(spec, IDENTITY, ONES, IDENTITY, CFG)

    def test_mean_mismatch_rejected(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.2)
        with pytest.raises(MomentMismatch):
            verify_stein(spec, IDENTITY, ONES, lambda u: u + 0.5, CFG)


class TestBridge:
    def test_equal_marginals_both_sides_equal_correlation(self):
        for corr in (0.25, 0.5, -0.4):
            spec = JointDensitySpec.bivariate_normal(corr=corr)
            rep1, rep2 = verify_distance_covariance(spec, CFG)
            # f_X = f_Y: rho = 1, c(t) = t - 1, both equations reduce to corr
            assert rep1.lhs == pytest.approx(corr, abs=1e-3)
            assert rep1.rhs == pytest.approx(corr, abs=1e-3)
            assert rep2.lhs == pytest.approx(corr, abs=1e-3)
            assert rep1.residual <= bound(rep1)
            assert rep2.residual <= bound(rep2)

    def test_shifted_marginals(self):
        spec = JointDensitySpec.bivariate_normal(mu_y=1.0, corr=0.5)
        rep1, rep2 = verify_distance_covariance(spec, CFG)
        assert rep1.residual <= bound(rep1)
        assert rep2.residual <= bound(rep2)

    def test_independent_equal_marginals_collapse_to_zero(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.0)
        rep1, _ = verify_distance_covariance(spec, CFG)
        assert abs(rep1.lhs) <= 1e-6
        assert abs(rep1.rhs) <= 1e-6

    def test_h_generalization(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.4)
        rep1, rep2 = verify_distance_covariance(spec, CFG, h=lambda u: u ** 3 / 3.0)
        assert rep1.residual <= bound(rep1)
        assert rep2.residual <= bound(rep2)


class TestPriceAsset:
    def test_independent_price_is_product(self):
        spec = JointDensitySpec.bivariate_normal(mu_y=2.0, corr=0.0)
        c = lambda t: 1.0 + 0.5 * t * t  # noqa: E731
        cp = lambda t: 1.0 * t  # noqa: E731
        rep = price_asset(spec, c, cp, CFG)
        want = (1.0 + 0.5) * 2.0  # E[c(f)] * E[x]
        for route in rep.routes:
            assert route == pytest.approx(want, abs=1e-6)

    def test_linear_discount_prices_covariance(self):
        spec = JointDensitySpec.bivariate_normal(corr=0.9)
        rep = price_asset(spec, IDENTITY, ONES, CFG)
        for route in rep.routes:
            assert route == pytest.approx(0.9, abs=1e-3)
        assert rep.max_residual <= max(1e-3, 3 * rep.combined_error)

    def test_constant_discount_kills_derivative_route(self):
        spec = JointDensitySpec.bivariate_normal(mu_y=1.5, corr=0.7)
        rep = price_asset(spec, lambda t: 2.0 + 0.0 * np.asarray(t),
                          lambda t: 0.0 * np.asarray(t), CFG)
        for route in rep.routes:
            assert route == pytest.approx(2.0 * 1.5, abs=1e-6)

    def test_restricted_decomposition_reprices(self):
        for corr in (-0.5, 0.0, 0.6):
            spec = JointDensitySpec.bivariate_normal(corr=corr)
            rep = price_asset(spec, IDENTITY, ONES, CFG)
            assert rep.restricted_total == pytest.approx(
                rep.restricted_direct, abs=max(1e-3, 3 * rep.combined_error)
            )

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

            rep = price_asset(spec, c, cp, CFG)
            assert rep.max_residual <= max(1e-3, 3 * rep.combined_error)
