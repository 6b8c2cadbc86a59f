"""Integration primitives against series, closed-form, and grid oracles."""

import copy
import dataclasses
import gc
import math
import pickle
import sys
import threading
import time

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from distsim import (
    DomainError,
    GaussianMulti,
    InvalidDistribution,
    NonConvergence,
    NotPositiveDefinite,
    QuadConfig,
    QuadResult,
    integrate_1d,
    mvn_rect_prob,
)

from distsim import quadrature
from distsim.quadrature import ABS_TOL, MC_REL_TARGET, REL_TOL, log_gauss_mass

from oracles import log_gauss_mass_mp, orthant_bivariate, quad_ref

CFG = QuadConfig(seed=123)


class TestIntegrate1d:
    def test_polynomial(self):
        assert integrate_1d(lambda x: x, 0, 1).value == pytest.approx(0.5, abs=1e-12)

    def test_normal_density_infinite_range(self):
        r = integrate_1d(
            lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            -math.inf, math.inf,
        )
        assert r.value == pytest.approx(1.0, abs=1e-10)
        assert abs(r.value - 1.0) <= max(r.error_estimate, 1e-12)

    def test_sine(self):
        assert integrate_1d(math.sin, 0, math.pi).value == pytest.approx(2.0, abs=1e-10)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_1d(lambda x: x, 1.0, 0.0)

    def test_nonconvergence_flagged(self, monkeypatch):
        monkeypatch.setattr(quadrature, "ABS_TOL", 1e-13)
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-13)
        monkeypatch.setattr(quadrature, "MAX_EVALS", 42)
        with pytest.raises(NonConvergence):
            integrate_1d(lambda x: abs(math.sin(50 / (x + 0.01))), 0, 1)

    def test_least_budget_is_one_exact_panel(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_EVALS", 21)
        r = integrate_1d(lambda x: x ** 3 - 2.0 * x, 0.0, 1.0)
        assert r.value == pytest.approx(-0.75, rel=1e-15, abs=0.0)
        assert r.evaluations == 21 and isinstance(r.value, float)

    @pytest.mark.parametrize("f", [
        lambda x: np.exp(-0.5 * (x - 3.0) ** 2) + 0.2 * np.exp(-np.abs(x + 40.0)),
        lambda x: 1.0 / (1.0 + x * x),
        lambda x: np.exp(-x * x) * np.cos(3.0 * x),
    ], ids=["mixture", "cauchy", "damped-cosine"])
    def test_whole_line_against_reference(self, f):
        got = integrate_1d(f, -math.inf, math.inf).value
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
        assert integrate_1d(f, a, b).value == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a, b", [(-math.inf, math.inf), (0.5, math.inf), (-math.inf, 0.5)])
    def test_scalar_only_callable(self, a, b):
        def f(x):  # math.exp takes no arrays
            return math.exp(-x * x) * (2.0 if x > 0.5 else 1.0)

        got = integrate_1d(f, a, b)
        assert isinstance(got.value, float)
        assert got.value == pytest.approx(quad_ref(f, a, b, points=(0.5,)), rel=1e-9, abs=0.0)

    def test_disjoint_indicators(self):
        def boxes(x):
            f = ((0.0 <= x) & (x <= 1.0)).astype(float)
            g = ((2.0 <= x) & (x <= 3.0)).astype(float)
            return np.stack([f, g, np.sqrt(f * g)], axis=1)

        r = integrate_1d(boxes, -1.0, 4.0)
        assert np.allclose(r.value, [1.0, 1.0, 0.0], rtol=0.0, atol=1e-9)
        assert r.value[2] == 0.0

    @pytest.mark.parametrize("a, b, left, right", [
        (-math.inf, math.inf, 1.0, 1.0), (0.0, math.inf, 0.0, 1.0), (-math.inf, 0.0, 1.0, 0.0),
    ])
    def test_vector_valued_on_infinite_range(self, a, b, left, right):
        powers = np.arange(8)
        r = integrate_1d(lambda x: x[:, None] ** powers * np.exp(-0.5 * x * x)[:, None],
                         a, b)
        # integral_0^inf x^j exp(-x^2 / 2) dx, and (-1)^j times it on the left
        half = np.array([2.0 ** ((j - 1) / 2) * math.gamma((j + 1) / 2) for j in powers])
        want = right * half + left * (-1.0) ** powers * half
        assert r.value.shape == (8,)
        assert np.allclose(r.value, want, rtol=1e-9, atol=1e-12)

    def test_tolerance_shrunk_with_the_integral_reports_the_summed_error(self):
        # a spike on the first pass's middle node inflates the first estimate, so
        # the panels retired then met a share of a larger tolerance; bisection puts
        # the spike on a panel edge, where no node sees it, the integral shrinks,
        # and with no panel left the summed error is reported above the tolerance
        w, c = 300.0, 0.5 / 24
        r = integrate_1d(lambda x: np.sin(w * x) + 1e6 * np.exp(-((x - c) / 1e-9) ** 2),
                         0.0, 1.0)
        assert r.evaluations == 21 * (24 + 2)
        assert r.error_estimate > max(ABS_TOL, REL_TOL * abs(r.value))
        assert r.value == pytest.approx((1.0 - math.cos(w)) / w, rel=0.0, abs=r.error_estimate)


class TestIntegrate1dVec:
    """:func:`integrate_1d` on vector-valued integrands: shared panels, chunks, budget."""

    def test_polynomials_exact_in_one_pass(self):
        powers = np.arange(32)
        r = integrate_1d(lambda x: x[:, None] ** powers, -1.0, 2.0)
        want = (2.0 ** (powers + 1) - (-1.0) ** (powers + 1)) / (powers + 1)
        assert np.allclose(r.value, want, rtol=1e-13, atol=0.0)
        assert r.evaluations == 24 * 21

    def test_narrow_peaks_refined_to_tolerance(self):
        centers = np.array([-3.0, 0.5, 4.0])

        def peaks(x):
            return np.exp(-0.5 * ((x[:, None] - centers) / 0.01) ** 2)

        r = integrate_1d(peaks, -5.0, 5.0)
        assert np.allclose(r.value, 0.01 * math.sqrt(2 * math.pi), rtol=1e-12, atol=0.0)
        assert r.error_estimate <= max(ABS_TOL, REL_TOL * r.value.max())
        assert r.evaluations > 24 * 21

    def test_calls_stay_within_chunk(self):
        scales = np.linspace(0.5, 2.0, 1000)  # one panel first, then three a call
        shapes = []

        def gaussians(x):
            shapes.append(x.size * scales.size)
            return np.exp(-scales * x[:, None] ** 2)

        r = integrate_1d(gaussians, -12.0, 12.0)
        assert shapes[0] == 21 * scales.size
        assert max(shapes) == 3 * 21 * scales.size
        assert np.allclose(r.value, np.sqrt(np.pi / scales), rtol=1e-13, atol=0.0)

    def test_budget_exhausted_raises(self, monkeypatch):
        def wiggle(x):
            return np.abs(np.sin(50 / (x[:, None] + 0.01)))

        for budget in (21, 2000):
            monkeypatch.setattr(quadrature, "MAX_EVALS", budget)
            with pytest.raises(NonConvergence):
                integrate_1d(wiggle, 0.0, 1.0)

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 0.0), (math.inf, math.inf),
                                      (math.nan, 1.0)])
    def test_bad_interval(self, a, b):
        with pytest.raises(DomainError):
            integrate_1d(lambda x: x[:, None], a, b)

    def test_no_entries(self):
        r = integrate_1d(lambda x: np.empty((x.size, 0)), 0.0, 1.0)
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
        want = ndtr((2.0 - 1.5) / 2.0) - ndtr((-1.0 - 1.5) / 2.0)
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

    def test_far_tail_later_coordinate(self):
        # the same box with its axes swapped: mirrored per sample, the mass does not cancel
        r = mvn_rect_prob(GaussianMulti([0.0, 0.0], np.eye(2)), [-1.0, 9.0], [1.0, 10.0], CFG)
        want = math.exp(log_gauss_mass(-1.0, 1.0) + log_gauss_mass(9.0, 10.0))
        assert r.value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_far_tail_correlated_later_coordinate(self):
        # corr 0.5: Y given X = x is N(x / 2, 3 / 4), and the box mass is 1.3e-19
        g = GaussianMulti([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        r = mvn_rect_prob(g, [-1.0, 8.0], [1.0, 9.0], CFG)
        sd = mpmath.sqrt(0.75)
        want = float(mpmath.quad(lambda x: mpmath.npdf(x) * (
            mpmath.ncdf((9 - x / 2) / sd) - mpmath.ncdf((8 - x / 2) / sd)), [-1, 0, 1]))
        assert want == pytest.approx(1.308193e-19, rel=1e-6)
        assert 0.0 < r.error_estimate <= MC_REL_TARGET * r.value
        assert abs(r.value - want) <= r.error_estimate

    def test_zero_estimate_raises(self):
        # the mass, about 1e-350, underflows in every sample
        g = GaussianMulti([0.0, 0.0], np.eye(2))
        assert log_gauss_mass(-1.0, 1.0) + log_gauss_mass(40.0, 41.0) < -745.0
        with pytest.raises(NonConvergence):
            mvn_rect_prob(g, [-1.0, 40.0], [1.0, 41.0], CFG)

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
            product *= ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd)
        assert abs(r.value - product) <= max(3 * r.error_estimate, 1e-12)

    def test_deterministic_given_seed(self):
        g = GaussianMulti([0.0, 0.0], [[1.0, 0.7], [0.7, 2.0]])
        a = mvn_rect_prob(g, [-1.0, -1.0], [1.0, 1.0], QuadConfig(seed=9))
        b = mvn_rect_prob(g, [-1.0, -1.0], [1.0, 1.0], QuadConfig(seed=9))
        assert a.value == b.value and a.error_estimate == b.error_estimate

    def test_cholesky_refusal_is_typed(self):
        # a rank-one covariance's eigenvalues can round positive, so the normal
        # builds, while the Cholesky factor meets a pivot that rounds to <= 0
        rng = np.random.default_rng(0)
        refused = []
        for _ in range(500):
            v = rng.standard_normal((2, 1))
            try:
                g = GaussianMulti([0.0, 0.0], v @ v.T)
                np.linalg.cholesky(g.cov)
            except InvalidDistribution:
                continue
            except np.linalg.LinAlgError:
                refused.append(g)
        assert refused
        for g in refused:
            with pytest.raises(NotPositiveDefinite):
                mvn_rect_prob(g, [-1.0, -1.0], [1.0, 1.0], CFG)

    def test_dimension_and_bound_errors(self):
        g = GaussianMulti([0.0, 0.0], np.eye(2))
        with pytest.raises(Exception):
            mvn_rect_prob(g, [0.0], [1.0, 2.0], CFG)
        with pytest.raises(DomainError):
            mvn_rect_prob(g, [1.0, 0.0], [0.0, 1.0], CFG)


class TestMvnRectProbStopping:
    """Each replicate's Sobol stream doubles until the 1e-5 relative half-width or the cap."""

    CAP = 12 * 32_768  # the default mc_samples of 200,000, split over 12 replicates

    @staticmethod
    def box(k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(k, k))
        cov = a @ a.T / k + 0.5 * np.eye(k)
        mu = 0.3 * rng.normal(size=k)
        sd = np.sqrt(np.diag(cov))
        lower = mu - rng.uniform(0.5, 2.0, k) * sd
        upper = mu + rng.uniform(0.5, 2.0, k) * sd
        lower[0] = -math.inf
        return GaussianMulti(mu, cov), lower, upper

    @pytest.mark.parametrize("k", [3, 6, 10])
    def test_correlated_against_scipy(self, k):
        g, lower, upper = self.box(k)
        r = mvn_rect_prob(g, lower, upper, CFG)
        want = multivariate_normal.cdf(upper, mean=g.mu, cov=g.cov, lower_limit=lower,
                                       rng=np.random.default_rng(0))
        assert abs(r.value - want) <= r.error_estimate + 5e-5

    def test_easy_box_stops_early(self):
        r = mvn_rect_prob(*self.box(3), CFG)
        assert r.evaluations < self.CAP
        assert r.evaluations in [12 * 2 ** m for m in range(10, 15)]
        assert 0.0 < r.error_estimate <= MC_REL_TARGET * r.value

    def test_hard_box_takes_the_cap(self):
        # 24,000 samples make a cap of 2,048 points a replicate, reached in two rounds
        r = mvn_rect_prob(*self.box(6), QuadConfig(seed=123, mc_samples=24_000))
        assert r.evaluations == 12 * 2048
        assert r.error_estimate > MC_REL_TARGET * r.value


class TestBoxMemo:
    """A box is computed once per normal and remembered while that normal lives."""

    BOX = ([-1.0, -1.0], [1.0, 1.0])

    @staticmethod
    def counted(monkeypatch, compute):
        """Route ``_box_prob`` through ``compute``; returns the list of its calls."""
        computed = []

        def box_prob(dist, lower, upper, cfg):
            computed.append((id(dist), lower.tobytes(), upper.tobytes()))
            return compute(dist, lower, upper, cfg)

        monkeypatch.setattr(quadrature, "_box_prob", box_prob)
        return computed

    def test_one_computation_per_normal_and_box(self, monkeypatch):
        computed = self.counted(monkeypatch, quadrature._box_prob)
        a, b = (GaussianMulti([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]]) for _ in range(2))
        gc.collect()
        before = len(quadrature._BOXES)
        first = mvn_rect_prob(a, *self.BOX, CFG)
        assert mvn_rect_prob(a, *self.BOX, CFG) is first
        assert len(computed) == 1
        # equal values, distinct objects: nothing shared, the same bits
        other = mvn_rect_prob(b, *self.BOX, CFG)
        assert other is not first and other.value == first.value
        # another box or another config is another computation
        mvn_rect_prob(a, [-1.0, -2.0], [1.0, 1.0], CFG)
        mvn_rect_prob(a, *self.BOX, QuadConfig(seed=124))
        assert len(computed) == 4
        assert len(quadrature._BOXES) == before + 2
        # nothing is stored on the normal: it still pickles and copies
        assert pickle.loads(pickle.dumps(a)).cov.tolist() == a.cov.tolist()
        assert copy.deepcopy(a).mu.tolist() == a.mu.tolist()
        del a, first
        gc.collect()
        assert len(quadrature._BOXES) == before + 1

    def test_racing_threads_all_see_the_first_stored_result(self, monkeypatch):
        def compute(dist, lower, upper, cfg):
            time.sleep(1e-4)  # widen the window between a miss and its store
            return QuadResult(0.5, 0.0, 1)

        computed = self.counted(monkeypatch, compute)
        normals = [GaussianMulti([0.0, 0.0], np.eye(2)) for _ in range(4)]
        boxes = [([-1.0 - i, -1.0], [1.0, 1.0]) for i in range(8)]
        seen = []
        lock = threading.Lock()
        start = threading.Barrier(8, timeout=30)

        def work():
            start.wait()
            for g in normals:
                for i, box in enumerate(boxes):
                    result = mvn_rect_prob(g, *box, CFG)
                    with lock:
                        seen.append((id(g), i, id(result)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 * len(normals) * len(boxes)
        by_box = {}
        for g_id, i, result_id in seen:
            by_box.setdefault((g_id, i), set()).add(result_id)
        # a lost update would hand two threads different results for one box
        assert len(by_box) == len(normals) * len(boxes)
        assert all(len(ids) == 1 for ids in by_box.values())
        # a racing thread waits for the first computation instead of repeating it
        assert len(computed) == len(normals) * len(boxes)
        assert all(len(quadrature._BOXES[g]) == len(boxes) for g in normals)

    def test_failed_computation_stores_nothing(self, monkeypatch):
        def fail(dist, lower, upper, cfg):
            raise ZeroDivisionError("float division by zero")

        self.counted(monkeypatch, fail)
        g = GaussianMulti([0.0, 0.0], np.eye(2))
        with pytest.raises(ZeroDivisionError):
            mvn_rect_prob(g, *self.BOX, CFG)
        computed = self.counted(monkeypatch, lambda *args: QuadResult(0.25, 0.0, 1))
        assert mvn_rect_prob(g, *self.BOX, CFG).value == 0.25
        assert len(computed) == 1


class TestQuadConfig:
    def test_field_validation(self):
        assert [f.name for f in dataclasses.fields(QuadConfig)] == ["mc_samples", "seed"]
        with pytest.raises(DomainError):
            QuadConfig(mc_samples=10)
