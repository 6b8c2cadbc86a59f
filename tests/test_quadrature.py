"""Integration primitives against series, closed-form, and grid oracles."""

import math

import numpy as np
import pytest

from distsim import (
    DomainError,
    GaussianMulti,
    NonConvergence,
    QuadConfig,
    integrate_1d,
    integrate_2d_mc,
    mvn_rect_prob,
    std_normal_cdf,
)

from distsim.quadrature import log_gauss_mass

from oracles import cdf_series, log_gauss_mass_mp, orthant_bivariate, quad_ref

CFG = QuadConfig(seed=123)


class TestStdNormalCdf:
    def test_center_and_infinities(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(math.inf) == 1.0
        assert std_normal_cdf(-math.inf) == 0.0

    def test_quantile_value(self):
        assert std_normal_cdf(1.959964) == pytest.approx(0.975000, abs=1e-6)

    def test_against_series_oracle(self):
        xs = np.concatenate([np.linspace(-8, 8, 161), [-20.0, 20.0, 1e-14]])
        for x in xs:
            assert std_normal_cdf(float(x)) == pytest.approx(
                cdf_series(float(x)), abs=1e-12
            )

    def test_reflection_symmetry(self):
        xs = np.linspace(-10, 10, 2001)
        total = std_normal_cdf(xs) + std_normal_cdf(-xs)
        assert np.max(np.abs(total - 1.0)) <= 1e-14

    def test_monotone(self):
        xs = np.linspace(-12, 12, 5001)
        assert np.all(np.diff(std_normal_cdf(xs)) >= 0)


class TestIntegrate1d:
    def test_polynomial(self):
        assert integrate_1d(lambda x: x, 0, 1, CFG).value == pytest.approx(0.5, abs=1e-12)

    def test_normal_density_infinite_range(self):
        r = integrate_1d(
            lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            -math.inf, math.inf, CFG,
        )
        assert r.value == pytest.approx(1.0, abs=1e-10)
        assert abs(r.value - 1.0) <= max(r.error_estimate, 1e-12)

    def test_sine(self):
        assert integrate_1d(math.sin, 0, math.pi, CFG).value == pytest.approx(2.0, abs=1e-10)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_1d(lambda x: x, 1.0, 0.0, CFG)

    def test_nonconvergence_flagged(self):
        starved = QuadConfig(abs_tol=1e-13, rel_tol=1e-13, max_evals=42)
        with pytest.raises(NonConvergence):
            integrate_1d(lambda x: abs(math.sin(50 / (x + 0.01))), 0, 1, starved)

    def test_least_budget_is_one_exact_panel(self):
        r = integrate_1d(lambda x: x ** 3 - 2.0 * x, 0.0, 1.0, QuadConfig(max_evals=21))
        assert r.value == pytest.approx(-0.75, rel=1e-15, abs=0.0)
        assert r.evaluations == 21 and isinstance(r.value, float)

    @pytest.mark.parametrize("f", [
        lambda x: np.exp(-0.5 * (x - 3.0) ** 2) + 0.2 * np.exp(-np.abs(x + 40.0)),
        lambda x: 1.0 / (1.0 + x * x),
        lambda x: np.exp(-x * x) * np.cos(3.0 * x),
    ], ids=["mixture", "cauchy", "damped-cosine"])
    def test_whole_line_against_reference(self, f):
        got = integrate_1d(f, -math.inf, math.inf, CFG).value
        assert got == pytest.approx(quad_ref(f, -math.inf, math.inf), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a, b, f, want", [
        (0.0, math.inf, lambda x: np.exp(-x), 1.0),
        (-math.inf, 0.0, lambda x: np.exp(x), 1.0),
        (2.0, math.inf, lambda x: 1.0 / (x * x), 0.5),
        (-math.inf, -2.0, lambda x: 1.0 / (x * x), 0.5),
        (-1.5, math.inf, lambda x: np.exp(-0.5 * x * x),
         math.sqrt(2 * math.pi) * math.exp(log_gauss_mass_mp(-1.5, math.inf))),
        (-math.inf, 7.0, lambda x: np.exp(-0.5 * (x - 5.0) ** 2),
         math.sqrt(2 * math.pi) * math.exp(log_gauss_mass_mp(-math.inf, 2.0))),
    ])
    def test_half_lines_against_closed_forms(self, a, b, f, want):
        assert integrate_1d(f, a, b, CFG).value == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a, b", [(-math.inf, math.inf), (0.5, math.inf), (-math.inf, 0.5)])
    def test_scalar_only_callable(self, a, b):
        def f(x):  # math.exp takes no arrays
            return math.exp(-x * x) * (2.0 if x > 0.5 else 1.0)

        got = integrate_1d(f, a, b, CFG)
        assert isinstance(got.value, float)
        assert got.value == pytest.approx(quad_ref(f, a, b, points=(0.5,)), rel=1e-9, abs=0.0)

    def test_disjoint_indicators(self):
        def boxes(x):
            f = ((0.0 <= x) & (x <= 1.0)).astype(float)
            g = ((2.0 <= x) & (x <= 3.0)).astype(float)
            return np.stack([f, g, np.sqrt(f * g)], axis=1)

        r = integrate_1d(boxes, -1.0, 4.0, CFG)
        assert np.allclose(r.value, [1.0, 1.0, 0.0], rtol=0.0, atol=1e-9)
        assert r.value[2] == 0.0

    @pytest.mark.parametrize("a, b, left, right", [
        (-math.inf, math.inf, 1.0, 1.0), (0.0, math.inf, 0.0, 1.0), (-math.inf, 0.0, 1.0, 0.0),
    ])
    def test_vector_valued_on_infinite_range(self, a, b, left, right):
        powers = np.arange(8)
        r = integrate_1d(lambda x: x[:, None] ** powers * np.exp(-0.5 * x * x)[:, None],
                         a, b, CFG)
        # integral_0^inf x^j exp(-x^2 / 2) dx, and (-1)^j times it on the left
        half = np.array([2.0 ** ((j - 1) / 2) * math.gamma((j + 1) / 2) for j in powers])
        want = right * half + left * (-1.0) ** powers * half
        assert r.value.shape == (8,)
        assert np.allclose(r.value, want, rtol=1e-9, atol=1e-12)


class TestIntegrate1dVec:
    """:func:`integrate_1d` on vector-valued integrands: shared panels, chunks, budget."""

    def test_polynomials_exact_in_one_pass(self):
        powers = np.arange(32)
        r = integrate_1d(lambda x: x[:, None] ** powers, -1.0, 2.0, CFG)
        want = (2.0 ** (powers + 1) - (-1.0) ** (powers + 1)) / (powers + 1)
        assert np.allclose(r.value, want, rtol=1e-13, atol=0.0)
        assert r.evaluations == 24 * 21

    def test_narrow_peaks_refined_to_tolerance(self):
        centers = np.array([-3.0, 0.5, 4.0])

        def peaks(x):
            return np.exp(-0.5 * ((x[:, None] - centers) / 0.01) ** 2)

        r = integrate_1d(peaks, -5.0, 5.0, CFG)
        assert np.allclose(r.value, 0.01 * math.sqrt(2 * math.pi), rtol=1e-12, atol=0.0)
        assert r.error_estimate <= max(CFG.abs_tol, CFG.rel_tol * r.value.max())
        assert r.evaluations > 24 * 21

    def test_calls_stay_within_chunk(self):
        scales = np.linspace(0.5, 2.0, 1000)  # one panel first, then three a call
        shapes = []

        def gaussians(x):
            shapes.append(x.size * scales.size)
            return np.exp(-scales * x[:, None] ** 2)

        r = integrate_1d(gaussians, -12.0, 12.0, CFG)
        assert shapes[0] == 21 * scales.size
        assert max(shapes) == 3 * 21 * scales.size
        assert np.allclose(r.value, np.sqrt(np.pi / scales), rtol=1e-13, atol=0.0)

    def test_budget_exhausted_raises(self):
        def wiggle(x):
            return np.abs(np.sin(50 / (x[:, None] + 0.01)))

        for budget in (21, 2000):
            with pytest.raises(NonConvergence):
                integrate_1d(wiggle, 0.0, 1.0, QuadConfig(max_evals=budget))

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 0.0), (math.inf, math.inf),
                                      (math.nan, 1.0)])
    def test_bad_interval(self, a, b):
        with pytest.raises(DomainError):
            integrate_1d(lambda x: x[:, None], a, b, CFG)

    def test_no_entries(self):
        r = integrate_1d(lambda x: np.empty((x.size, 0)), 0.0, 1.0, CFG)
        assert r.value.shape == (0,) and r.error_estimate == 0.0


class TestLogGaussMass:
    @pytest.mark.parametrize("a, b", [
        (39.0, 40.0), (-40.0, -39.0), (40.0, math.inf), (-math.inf, -40.0),
        (-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf),
        (0.1, 0.1 + 1e-7), (-0.1 - 1e-7, -0.1), (-1.0, 2.0),
    ])
    def test_against_mpmath(self, a, b):
        assert log_gauss_mass(a, b) == pytest.approx(log_gauss_mass_mp(a, b), rel=1e-9)

    def test_mirror_symmetric_and_empty(self):
        assert log_gauss_mass(12.0, 13.5) == log_gauss_mass(-13.5, -12.0)
        assert log_gauss_mass(2.0, 2.0) == -math.inf


class TestMvnRectProb:
    def test_half_line_1d(self):
        g = GaussianMulti([0.0], [[1.0]])
        r = mvn_rect_prob(g, [-math.inf], [0.0], CFG)
        assert r.value == 0.5
        assert r.error_estimate == 0.0

    def test_1d_matches_cdf_difference(self):
        g = GaussianMulti([1.5], [[4.0]])
        r = mvn_rect_prob(g, [-1.0], [2.0], CFG)
        want = std_normal_cdf((2.0 - 1.5) / 2.0) - std_normal_cdf((-1.0 - 1.5) / 2.0)
        assert r.value == pytest.approx(want, abs=1e-10)

    def test_1d_far_tail_box(self):
        # Phi(11) - Phi(10) cancels to 0 in float64
        r = mvn_rect_prob(GaussianMulti([0.0], [[1.0]]), [10.0], [11.0], CFG)
        assert r.value == pytest.approx(7.6197e-24, rel=1e-4, abs=0.0)
        assert r.value == pytest.approx(math.exp(log_gauss_mass_mp(10.0, 11.0)),
                                        rel=1e-9, abs=0.0)

    def test_far_tail_first_coordinate(self):
        # Phi(10) - Phi(9) cancels to 0 in float64; mirrored, the mass is 1.1e-19
        r = mvn_rect_prob(GaussianMulti([0.0, 0.0], np.eye(2)), [9.0, -1.0], [10.0, 1.0], CFG)
        want = math.exp(log_gauss_mass(9.0, 10.0) + log_gauss_mass(-1.0, 1.0))
        assert want == pytest.approx(7.7e-20, rel=1e-2)
        assert r.value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zero_estimate_raises(self):
        # the same box with its axes swapped: the second coordinate's mass cancels
        g = GaussianMulti([0.0, 0.0], np.eye(2))
        assert math.exp(log_gauss_mass(-1.0, 1.0) + log_gauss_mass(9.0, 10.0)) > 0.0
        with pytest.raises(NonConvergence):
            mvn_rect_prob(g, [-1.0, 9.0], [1.0, 10.0], CFG)

    def test_independent_octant(self):
        g = GaussianMulti(np.zeros(3), np.eye(3))
        r = mvn_rect_prob(g, [-math.inf] * 3, [0.0] * 3, CFG)
        assert r.value == pytest.approx(0.125, abs=max(3 * r.error_estimate, 1e-12))

    def test_correlated_orthant_arcsine(self):
        g = GaussianMulti([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        r = mvn_rect_prob(g, [-math.inf] * 2, [0.0] * 2, CFG)
        assert abs(r.value - orthant_bivariate(0.5)) <= 3 * r.error_estimate

    def test_monotone_in_box(self):
        g = GaussianMulti([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])
        small = mvn_rect_prob(g, [-1.0, -1.0], [1.0, 1.0], CFG)
        large = mvn_rect_prob(g, [-2.0, -2.0], [2.0, 2.0], CFG)
        slack = 3 * (small.error_estimate + large.error_estimate)
        assert large.value >= small.value - slack

    def test_diagonal_factorizes(self):
        g = GaussianMulti([0.0, 1.0, -1.0], np.diag([1.0, 4.0, 0.25]))
        r = mvn_rect_prob(g, [-1.0, -2.0, -1.5], [1.0, 3.0, 0.0], CFG)
        product = 1.0
        for mu, var, lo, hi in [(0, 1, -1, 1), (1, 4, -2, 3), (-1, 0.25, -1.5, 0)]:
            sd = math.sqrt(var)
            product *= std_normal_cdf((hi - mu) / sd) - std_normal_cdf((lo - mu) / sd)
        assert abs(r.value - product) <= max(3 * r.error_estimate, 1e-12)

    def test_deterministic_given_seed(self):
        g = GaussianMulti([0.0, 0.0], [[1.0, 0.7], [0.7, 2.0]])
        a = mvn_rect_prob(g, [-1.0, -1.0], [1.0, 1.0], QuadConfig(seed=9))
        b = mvn_rect_prob(g, [-1.0, -1.0], [1.0, 1.0], QuadConfig(seed=9))
        assert a.value == b.value and a.error_estimate == b.error_estimate

    def test_dimension_and_bound_errors(self):
        g = GaussianMulti([0.0, 0.0], np.eye(2))
        with pytest.raises(Exception):
            mvn_rect_prob(g, [0.0], [1.0, 2.0], CFG)
        with pytest.raises(DomainError):
            mvn_rect_prob(g, [1.0, 0.0], [0.0, 1.0], CFG)


class TestIntegrate2dMc:
    def test_constant(self):
        r = integrate_2d_mc(lambda x, y: np.ones_like(x), ((0, 1), (0, 1)), CFG)
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        r = integrate_2d_mc(lambda x, y: x * y, ((0, 1), (0, 1)), CFG)
        assert abs(r.value - 0.25) <= r.error_estimate

    def test_normal_mass(self):
        def density(x, y):
            return np.exp(-0.5 * (x * x + y * y)) / (2 * math.pi)

        r = integrate_2d_mc(density, ((-8, 8), (-8, 8)), CFG)
        assert abs(r.value - 1.0) <= r.error_estimate

    def test_deterministic(self):
        f = lambda x, y: x + y  # noqa: E731
        a = integrate_2d_mc(f, ((0, 2), (0, 3)), QuadConfig(seed=4))
        b = integrate_2d_mc(f, ((0, 2), (0, 3)), QuadConfig(seed=4))
        assert a.value == b.value

    def test_scalar_only_callable_supported(self):
        r = integrate_2d_mc(lambda x, y: float(x) * float(y), ((0, 1), (0, 1)),
                            QuadConfig(seed=1, mc_samples=2000))
        assert abs(r.value - 0.25) <= r.error_estimate


class TestQuadConfig:
    def test_field_validation(self):
        with pytest.raises(DomainError):
            QuadConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadConfig(mc_samples=10)
