"""Closed-form distances against quadrature/grid oracles and limit laws."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from distsim import (
    DimensionMismatch,
    DomainError,
    GaussianMulti,
    GaussianUni,
    NoSolution,
    NotPositiveDefinite,
    QuadConfig,
    TruncGaussianMulti,
    TruncGaussianUni,
    bc_mvn,
    bc_normal_uni,
    bc_truncated_mvn,
    bc_truncated_uni,
    mvn_overlap_params,
    overlap_params,
    truncation_inequality_holds_mvn,
    truncation_inequality_holds_uni,
)
from distsim.gaussian import fit_truncated_normal, truncated_moments, truncated_mvn_terms
from distsim.quadrature import log_gauss_mass

from oracles import (
    bc_coefficient_mc_mvn,
    bc_distance_grid_tmn,
    bc_distance_quad_uni,
    normal_pdf,
    trunc_normal_pdf,
)

CFG = QuadConfig(seed=21)


def random_pd(rng, k, ridge=0.4):
    a = rng.standard_normal((k, k))
    return a @ a.T + ridge * np.eye(k)


class TestNormalUni:
    def test_identical_is_zero(self):
        p = GaussianUni(0.3, 1.7)
        assert bc_normal_uni(p, p).distance == 0.0

    def test_unit_mean_shift(self):
        assert bc_normal_uni(GaussianUni(0, 1), GaussianUni(1, 1)).distance == 0.125

    def test_variance_ratio_term(self):
        d = bc_normal_uni(GaussianUni(0, 2), GaussianUni(0, 1)).distance
        assert d == pytest.approx(0.25 * math.log(1.125), abs=1e-15)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            mu_p, mu_q = rng.uniform(-2, 2, 2)
            vp, vq = rng.uniform(0.3, 3.0, 2)
            closed = bc_normal_uni(GaussianUni(mu_p, vp), GaussianUni(mu_q, vq)).distance
            lo = min(mu_p, mu_q) - 12 * math.sqrt(max(vp, vq))
            hi = max(mu_p, mu_q) + 12 * math.sqrt(max(vp, vq))
            oracle = bc_distance_quad_uni(
                lambda x: normal_pdf(x, mu_p, vp),
                lambda x: normal_pdf(x, mu_q, vq), lo, hi,
            )
            assert closed == pytest.approx(oracle, abs=1e-8)

    def test_symmetric_bitwise(self):
        p, q = GaussianUni(0.37, 1.21), GaussianUni(-1.4, 0.56)
        assert bc_normal_uni(p, q).distance == bc_normal_uni(q, p).distance

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_apart_means_give_infinite_distance(self):
        # the squared mean gap overflows: the distance is inf, not an OverflowError
        far = bc_normal_uni(GaussianUni(1e300, 1.0), GaussianUni(0.0, 1.0))
        assert (far.coefficient, far.distance) == (0.0, math.inf)
        unbounded = bc_truncated_uni(TruncGaussianUni(1e300, 1.0, -math.inf, math.inf),
                                     TruncGaussianUni(0.0, 1.0, -math.inf, math.inf))
        assert (unbounded.coefficient, unbounded.distance) == (0.0, math.inf)


class TestMvn:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_apart_means_give_infinite_distance(self):
        far = bc_mvn(GaussianMulti([1e300, 0.0], np.eye(2)), GaussianMulti([0.0, 0.0], np.eye(2)))
        assert (far.coefficient, far.distance) == (0.0, math.inf)

    def test_identity_covariances_unit_shift(self):
        p = GaussianMulti([0, 0], np.eye(2))
        q = GaussianMulti([1, 0], np.eye(2))
        assert bc_mvn(p, q).distance == 0.125

    def test_scaled_identity(self):
        p = GaussianMulti([0, 0], 2 * np.eye(2))
        q = GaussianMulti([0, 0], np.eye(2))
        assert bc_mvn(p, q).distance == pytest.approx(0.5 * math.log(1.125), abs=1e-15)

    def test_identical_is_exact_zero(self):
        cov = np.array([[2.0, 0.7], [0.7, 1.2]])
        p = GaussianMulti([0.4, -0.1], cov)
        assert bc_mvn(p, p).distance == 0.0

    def test_against_mc_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            k = 2 if trial % 2 else 3
            p = GaussianMulti(rng.uniform(-1, 1, k), random_pd(rng, k))
            q = GaussianMulti(rng.uniform(-1, 1, k), random_pd(rng, k))
            closed_rho = math.exp(-bc_mvn(p, q).distance)
            est, se = bc_coefficient_mc_mvn(p, q, n=100_000, seed=trial)
            assert abs(closed_rho - est) <= 3 * se

    def test_k1_matches_univariate(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            mu = rng.uniform(-2, 2, 2)
            var = rng.uniform(0.2, 3.0, 2)
            multi = bc_mvn(GaussianMulti([mu[0]], [[var[0]]]),
                           GaussianMulti([mu[1]], [[var[1]]])).distance
            uni = bc_normal_uni(GaussianUni(mu[0], var[0]),
                                GaussianUni(mu[1], var[1])).distance
            assert multi == pytest.approx(uni, abs=1e-14)

    def test_symmetric_bitwise(self):
        rng = np.random.default_rng(14)
        p = GaussianMulti(rng.uniform(-1, 1, 3), random_pd(rng, 3))
        q = GaussianMulti(rng.uniform(-1, 1, 3), random_pd(rng, 3))
        assert bc_mvn(p, q).distance == bc_mvn(q, p).distance

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bc_mvn(GaussianMulti([0], [[1]]), GaussianMulti([0, 0], np.eye(2)))

    def test_near_singular_rejected(self):
        cov = np.diag([1.0, 1e-13])
        p = GaussianMulti([0, 0], cov)
        with pytest.raises(NotPositiveDefinite):
            bc_mvn(p, GaussianMulti([0, 0], np.eye(2)))


class TestTruncatedUni:
    def test_identical(self):
        p = TruncGaussianUni(0, 1, -1, 1)
        assert bc_truncated_uni(p, p).distance == 0.0

    def test_wide_bounds_hit_untruncated_limit(self):
        p = TruncGaussianUni(0, 1, -10, 10)
        q = TruncGaussianUni(1, 1, -10, 10)
        assert bc_truncated_uni(p, q).distance == pytest.approx(0.125, abs=1e-6)

    def test_disjoint_supports(self):
        v = bc_truncated_uni(TruncGaussianUni(0, 1, 0, 1), TruncGaussianUni(0, 1, 2, 3))
        assert v.coefficient == 0.0 and v.distance == math.inf

    def test_against_defining_integral(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            mu = rng.uniform(-1, 1, 2)
            var = rng.uniform(0.3, 2.0, 2)
            # both intervals straddle 0 so the supports always overlap
            a, c = rng.uniform(-3, -0.2, 2)
            b, d = rng.uniform(0.2, 3, 2)
            p = TruncGaussianUni(mu[0], var[0], a, b)
            q = TruncGaussianUni(mu[1], var[1], c, d)
            closed = bc_truncated_uni(p, q).distance
            oracle = bc_distance_quad_uni(
                lambda x: trunc_normal_pdf(x, mu[0], var[0], a, b),
                lambda x: trunc_normal_pdf(x, mu[1], var[1], c, d),
                max(a, c), min(b, d),
            )
            assert closed == pytest.approx(oracle, abs=1e-8)

    def test_overlap_uses_max_of_lower_bounds(self):
        # bounds chosen so min(a, c) would include a region where q vanishes
        p = TruncGaussianUni(0.0, 1.0, -2.0, 2.0)
        q = TruncGaussianUni(0.0, 1.0, 0.5, 3.0)
        ov = overlap_params(p, q)
        assert ov.l == 0.5 and ov.u == 2.0
        closed = bc_truncated_uni(p, q).distance
        oracle = bc_distance_quad_uni(
            lambda x: trunc_normal_pdf(x, 0, 1, -2, 2),
            lambda x: trunc_normal_pdf(x, 0, 1, 0.5, 3), 0.5, 2.0,
        )
        assert closed == pytest.approx(oracle, abs=1e-8)

    def test_limit_decreasing_in_clip(self):
        base = bc_normal_uni(GaussianUni(0.2, 1.3), GaussianUni(-0.3, 0.8)).distance
        gaps = []
        for c in (4.0, 6.0, 8.0, 10.0):
            p = TruncGaussianUni(0.2, 1.3, 0.2 - c * math.sqrt(1.3), 0.2 + c * math.sqrt(1.3))
            q = TruncGaussianUni(-0.3, 0.8, -0.3 - c * math.sqrt(0.8), -0.3 + c * math.sqrt(0.8))
            gaps.append(abs(bc_truncated_uni(p, q).distance - base))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6

    def test_symmetric_bitwise(self):
        p = TruncGaussianUni(0.3, 1.4, -0.8, 2.0)
        q = TruncGaussianUni(-0.2, 0.7, -1.5, 1.1)
        assert bc_truncated_uni(p, q).distance == bc_truncated_uni(q, p).distance


class TestTruncatedUniTails:
    """Boxes deep in either tail against scipy ``truncnorm`` plus quadrature.

    The sweep runs to 40 standard deviations, past the point (about 37)
    where float64 ``ndtr`` underflows to 0: every mass is taken in log space.
    """

    @staticmethod
    def truncnorm_pdf(t: TruncGaussianUni):
        a, b = (t.lower - t.mu) / t.sigma, (t.upper - t.mu) / t.sigma
        return stats.truncnorm(a, b, loc=t.mu, scale=t.sigma).pdf

    @pytest.mark.parametrize("lo, hi", [
        (39.0, 40.0), (38.0, 39.0), (29.0, 30.0), (20.0, 21.5), (10.0, 11.0),
        (8.0, 9.0), (3.0, 5.0), (-40.0, -39.0), (-39.0, -38.0), (-30.0, -29.0),
        (-21.5, -20.0), (-11.0, -10.0), (-9.0, -8.0), (-5.0, -3.0), (-0.5, 0.5),
    ])
    @pytest.mark.parametrize("mu_q, var_q", [(0.2, 1.0), (-0.3, 1.6)])
    def test_against_scipy_truncnorm(self, lo, hi, mu_q, var_q):
        p = TruncGaussianUni(0.0, 1.0, lo, hi)
        q = TruncGaussianUni(mu_q, var_q, lo, hi)
        pdf_p, pdf_q = self.truncnorm_pdf(p), self.truncnorm_pdf(q)
        coef, _ = integrate.quad(lambda x: math.sqrt(pdf_p(x) * pdf_q(x)), lo, hi,
                                 epsabs=0.0, epsrel=1e-13, limit=200)
        closed = bc_truncated_uni(p, q).distance
        assert math.isfinite(closed)
        assert closed == pytest.approx(-math.log(coef), rel=1e-7, abs=1e-13)

    def test_upper_tail_no_longer_cancels(self):
        v = bc_truncated_uni(TruncGaussianUni(0, 1, 10, 11),
                             TruncGaussianUni(0.2, 1, 10, 11))
        assert v.distance == pytest.approx(4.7999e-5, rel=1e-4)

    def test_mirror_image_gives_same_distance(self):
        p, q = TruncGaussianUni(0, 1, 12, 13), TruncGaussianUni(0.3, 1.2, 12, 14)
        mp, mq = (TruncGaussianUni(-t.mu, t.sigma2, -t.upper, -t.lower) for t in (p, q))
        assert bc_truncated_uni(p, q).distance == pytest.approx(
            bc_truncated_uni(mp, mq).distance, rel=1e-12)
        check = truncation_inequality_holds_uni(p, q)
        assert check.lhs > 0 and check.rhs > 0

    def test_inequality_verdict_past_underflow(self):
        # at 39 sigma both sides underflow to 0; the verdict comes from the logs
        p, q = TruncGaussianUni(0, 1, 39, 40), TruncGaussianUni(0.2, 1, 39, 40)
        mp, mq = (TruncGaussianUni(-t.mu, t.sigma2, -t.upper, -t.lower) for t in (p, q))
        check = truncation_inequality_holds_uni(p, q)
        mirror = truncation_inequality_holds_uni(mp, mq)
        assert check.holds == mirror.holds
        assert check.holds == (bc_truncated_uni(p, q).distance
                               >= bc_normal_uni(p.parent(), q.parent()).distance)
        assert not check.holds

    @pytest.mark.parametrize("lo, hi", [
        (39.0, 40.0), (38.0, 39.0), (10.0, 11.0), (3.0, 5.0), (1.0, math.inf),
        (-40.0, -39.0), (-11.0, -10.0), (-math.inf, -2.0), (-0.5, 0.5),
    ])
    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.2, 1.0), (-0.3, 1.3)])
    def test_moments_against_scipy_truncnorm(self, lo, hi, mu, sigma):
        a, b = (lo - mu) / sigma, (hi - mu) / sigma
        want_m, want_v = stats.truncnorm.stats(a, b, loc=mu, scale=sigma, moments="mv")
        m, v = truncated_moments(mu, sigma, lo, hi)
        assert m == pytest.approx(float(want_m), rel=1e-12, abs=0.0)
        assert v == pytest.approx(float(want_v), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("mu, sigma, lo, hi", [
    (0.0, 0.0, -1.0, 1.0), (0.0, -1.0, -1.0, 1.0), (0.0, 1.0, 1e10, 0.0),
    (0.0, 1.0, 10.0, 0.0), (0.0, 1.0, 2.0, 2.0),
], ids=["zero-sigma", "negative-sigma", "far-inverted", "inverted", "empty"])
def test_truncated_moments_refuses_what_it_cannot_compute(mu, sigma, lo, hi):
    with pytest.raises(DomainError, match="sigma > 0 and lo < hi"):
        truncated_moments(mu, sigma, lo, hi)


class TestFitTruncatedNormal:
    """The Newton moment fit inverts ``truncated_moments``."""

    @pytest.mark.parametrize("lo, hi, mu, sigma", [
        # finite intervals
        (-1.0, 1.0, 0.3, 0.8), (-1.0, 1.0, -2.0, 1.5), (-0.5, 2.0, 1.0, 0.5),
        (1.0, 3.0, 0.0, 1.0), (-3.0, -2.0, 0.5, 2.0), (0.0, 3.0, 4.0, 1.0),
        # half-infinite, both directions
        (0.0, math.inf, 0.5, 1.0), (-1.5, math.inf, -3.0, 2.0),
        (-math.inf, 0.5, 1.0, 0.7), (-math.inf, -2.0, 0.0, 1.0),
        # one-sided cuts to +-5 sigma
        (-5.0, math.inf, 0.0, 1.0), (2.5, math.inf, 0.0, 1.0), (5.0, math.inf, 0.0, 1.0),
        (-math.inf, 5.0, 0.0, 1.0), (-math.inf, -3.5, 0.0, 1.0), (-math.inf, -5.0, 0.0, 1.0),
    ])
    def test_round_trips_exact_moments(self, lo, hi, mu, sigma):
        fit_mu, fit_sigma = fit_truncated_normal(*truncated_moments(mu, sigma, lo, hi), lo, hi)
        assert abs(fit_mu - mu) <= 1e-9 * sigma
        assert fit_sigma == pytest.approx(sigma, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("mean, var, lo, hi", [
        (0.0, 0.34, -1.0, 1.0),          # wider than the uniform on the interval
        (1.0, 1.5, 0.0, math.inf),       # heavier than the exponential
        (-1.0, 1.2, -math.inf, 0.0),
    ])
    def test_flatter_than_every_truncated_normal_has_no_solution(self, mean, var, lo, hi):
        with pytest.raises(NoSolution, match="flatter than any truncated normal"):
            fit_truncated_normal(mean, var, lo, hi)


def copy_trunc(t: TruncGaussianMulti) -> TruncGaussianMulti:
    return TruncGaussianMulti(t.mu.copy(), t.cov.copy(), t.lower.copy(), t.upper.copy())


class TestPairInvariantMemo:
    """Per-object terms are computed once per object, with the bits a recomputation gives."""

    @staticmethod
    def truncated_fits(seed, count=3, k=3):
        rng = np.random.default_rng(seed)
        return [TruncGaussianMulti(rng.uniform(-0.3, 0.3, k), random_pd(rng, k),
                                   rng.uniform(-2.0, -1.0, k), rng.uniform(1.0, 2.0, k))
                for _ in range(count)]

    def test_parent_is_one_object(self):
        (p,) = self.truncated_fits(41, count=1)
        assert p.parent() is p.parent()
        assert np.array_equal(p.parent().cov, p.cov)

    def test_truncated_terms_match_fresh_copies(self):
        p, q, r = self.truncated_fits(42)
        pairs = [(p, q), (p, r), (q, r), (r, p)]
        first = [truncated_mvn_terms(a, b, CFG) for a, b in pairs]
        again = [truncated_mvn_terms(a, b, CFG) for a, b in pairs]
        fresh = [truncated_mvn_terms(copy_trunc(a), copy_trunc(b), CFG) for a, b in pairs]
        assert first == again == fresh
        assert [bc_truncated_mvn(a, b, CFG).distance for a, b in pairs] == [
            t.distance for t in fresh]

    def test_bc_mvn_matches_fresh_copies(self):
        rng = np.random.default_rng(43)
        dists = [GaussianMulti(rng.uniform(-1, 1, 4), random_pd(rng, 4)) for _ in range(3)]
        pairs = [(a, b) for a in dists for b in dists if a is not b]
        first = [bc_mvn(a, b).distance for a, b in pairs]
        again = [bc_mvn(a, b).distance for a, b in pairs]
        fresh = [bc_mvn(GaussianMulti(a.mu.copy(), a.cov.copy()),
                        GaussianMulti(b.mu.copy(), b.cov.copy())).distance
                 for a, b in pairs]
        assert first == again == fresh

    def test_first_pair_decomposes_only_the_average(self, monkeypatch):
        rng = np.random.default_rng(44)
        p, q = (GaussianMulti(rng.uniform(-1, 1, 4), random_pd(rng, 4)) for _ in range(2))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        bc_mvn(p, q)
        assert len(calls) == 1
        assert np.array_equal(calls[0], 0.5 * (p.cov + q.cov))

    def test_truncated_terms_make_eight_lapack_calls(self, monkeypatch):
        p, q = self.truncated_fits(45, count=2)
        truncated_mvn_terms(p, q, CFG)  # remembers both box normalisers
        calls = []
        for name in ("inv", "solve", "eigvalsh", "cholesky"):
            def counted(*args, name=name, original=getattr(np.linalg, name)):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        truncated_mvn_terms(p, q, CFG)
        assert sorted(calls) == ["cholesky"] + ["eigvalsh"] * 2 + ["inv"] * 3 + ["solve"] * 2

    def test_conditioning_label_follows_operand_position(self):
        bad = GaussianMulti([0, 0], np.diag([1.0, 1e-13]))
        good = GaussianMulti([0, 0], np.eye(2))
        for _ in range(2):  # twice: a normal takes the label of its position each time
            with pytest.raises(NotPositiveDefinite, match="first covariance"):
                bc_mvn(bad, good)
            with pytest.raises(NotPositiveDefinite, match="second covariance"):
                bc_mvn(good, bad)


class TestTruncatedMvn:
    def test_identical_wide_boxes(self):
        p = TruncGaussianMulti([0, 0], np.eye(2), [-10, -10], [10, 10])
        assert bc_truncated_mvn(p, p, CFG).distance == pytest.approx(0.0, abs=1e-6)

    def test_wide_boxes_hit_untruncated_limit(self):
        p = TruncGaussianMulti([0, 0], np.eye(2), [-10, -10], [10, 10])
        q = TruncGaussianMulti([1, 0], np.eye(2), [-10, -10], [10, 10])
        assert bc_truncated_mvn(p, q, CFG).distance == pytest.approx(0.125, abs=1e-4)

    def test_disjoint_axis(self):
        p = TruncGaussianMulti([0, 0], np.eye(2), [0, 0], [1, 1])
        q = TruncGaussianMulti([0, 0], np.eye(2), [2, 0], [3, 1])
        v = bc_truncated_mvn(p, q, CFG)
        assert v.coefficient == 0.0 and v.distance == math.inf

    def test_unit_box_against_grid_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(4):
            p = TruncGaussianMulti(rng.uniform(-0.5, 0.5, 2), random_pd(rng, 2),
                                   [0, 0], [1, 1])
            q = TruncGaussianMulti(rng.uniform(-0.5, 0.5, 2), random_pd(rng, 2),
                                   [0, 0], [1, 1])
            closed = bc_truncated_mvn(p, q, CFG).distance
            oracle = bc_distance_grid_tmn(p, q)
            assert closed == pytest.approx(oracle, abs=1e-3)

    def test_infinite_bounds_accepted(self):
        p = TruncGaussianMulti([0, 0], np.eye(2),
                               [-math.inf, 0.0], [math.inf, 2.0])
        q = TruncGaussianMulti([0.2, 0.1], np.eye(2),
                               [-math.inf, -1.0], [math.inf, 1.5])
        v = bc_truncated_mvn(p, q, CFG)
        assert math.isfinite(v.distance) and v.distance > 0

    def test_symmetric_given_seed(self):
        rng = np.random.default_rng(17)
        for k in [2, 3, 4, 5, 6] * 12:  # 60 pairs
            p, q = (TruncGaussianMulti(rng.uniform(-0.3, 0.3, k), random_pd(rng, k),
                                       rng.uniform(-2.0, -0.5, k), rng.uniform(0.5, 2.0, k))
                    for _ in range(2))
            pq, qp = mvn_overlap_params(p, q), mvn_overlap_params(q, p)
            assert np.array_equal(pq.m, qp.m) and np.array_equal(pq.S, qp.S)
            assert (bc_truncated_mvn(p, q, CFG).distance
                    == bc_truncated_mvn(q, p, CFG).distance)

    def test_mvn_overlap_params_structure(self):
        p = TruncGaussianMulti([0, 0], np.eye(2), [-1, -1], [1, 1])
        q = TruncGaussianMulti([0.5, 0.0], 2 * np.eye(2), [0, -2], [2, 2])
        ov = mvn_overlap_params(p, q)
        assert np.array_equal(ov.l, [0.0, -1.0])
        assert np.array_equal(ov.u, [1.0, 1.0])
        # S = (P_p + P_q)^-1 for the two precisions
        want_s = np.linalg.inv(np.linalg.inv(np.eye(2)) + np.linalg.inv(2 * np.eye(2)))
        assert np.allclose(ov.S, want_s, atol=1e-12)
        # the mixture normal N(m, 2S), built once with the parameters
        assert np.array_equal(ov.mixture.mu, ov.m)
        assert np.array_equal(ov.mixture.cov, 2.0 * ov.S)


class TestTruncationInequality:
    def test_untruncated_limit_sides_equal(self):
        p = TruncGaussianUni(0, 1, -12, 12)
        q = TruncGaussianUni(0.5, 1.5, -12, 12)
        chk = truncation_inequality_holds_uni(p, q)
        assert chk.lhs == pytest.approx(chk.rhs, abs=1e-10)

    def test_condition_matches_direct_comparison_uni(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            mu = rng.uniform(-1, 1, 2)
            var = rng.uniform(0.4, 2.0, 2)
            a, c = rng.uniform(-2.5, -0.1, 2)
            b, d = rng.uniform(0.1, 2.5, 2)
            p = TruncGaussianUni(mu[0], var[0], a, b)
            q = TruncGaussianUni(mu[1], var[1], c, d)
            chk = truncation_inequality_holds_uni(p, q)
            d_tn = bc_truncated_uni(p, q).distance
            d_n = bc_normal_uni(p.parent(), q.parent()).distance
            assert chk.holds == (d_tn >= d_n)

    def test_disjoint_supports_rejected(self):
        with pytest.raises(DomainError):
            truncation_inequality_holds_uni(
                TruncGaussianUni(0, 1, 0, 1), TruncGaussianUni(0, 1, 2, 3)
            )

    def test_mvn_disjoint_boxes_rejected(self):
        p = TruncGaussianMulti([0, 0], np.eye(2), [0, 0], [1, 1])
        q = TruncGaussianMulti([0, 0], np.eye(2), [0, 2], [1, 3])
        with pytest.raises(DomainError, match="supports do not overlap"):
            truncation_inequality_holds_mvn(p, q, CFG)

    def test_mvn_wide_boxes_near_equality(self):
        p = TruncGaussianMulti([0, 0], np.eye(2), [-10, -10], [10, 10])
        q = TruncGaussianMulti([0.3, 0.1], np.eye(2), [-10, -10], [10, 10])
        chk = truncation_inequality_holds_mvn(p, q, CFG)
        assert chk.lhs == pytest.approx(chk.rhs, abs=1e-6)

    def test_mvn_condition_matches_direct_comparison(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            p = TruncGaussianMulti(rng.uniform(-0.3, 0.3, 2), random_pd(rng, 2),
                                   [-1.0, -1.0], [1.0, 1.0])
            q = TruncGaussianMulti(rng.uniform(-0.3, 0.3, 2), random_pd(rng, 2),
                                   [-1.0, -1.0], [1.0, 1.0])
            chk = truncation_inequality_holds_mvn(p, q, CFG)
            d_tmn = bc_truncated_mvn(p, q, CFG).distance
            d_mn = bc_mvn(p.parent(), q.parent()).distance
            assert chk.holds == (d_tmn >= d_mn)

    def test_mvn_verdict_past_underflow(self):
        # at 26 sigma sqrt(P_p P_q) underflows to 0 when formed as a product
        p = TruncGaussianMulti([0, 0], np.eye(2), [26, 26], [27, 27])
        q = TruncGaussianMulti([0, 0], 1.2 * np.eye(2), [26, 26], [27, 27])
        chk = truncation_inequality_holds_mvn(p, q, CFG)
        assert chk.holds
        assert bc_truncated_mvn(p, q, CFG).distance >= bc_mvn(p.parent(), q.parent()).distance
        # diagonal covariances: each box mass is a product of exact interval masses
        log_p = 2 * log_gauss_mass(26.0, 27.0)
        log_q = 2 * log_gauss_mass(26.0 / math.sqrt(1.2), 27.0 / math.sqrt(1.2))
        assert chk.lhs == pytest.approx(math.exp(0.5 * (log_p + log_q)), rel=1e-12)

    def test_mvn_dimension_mismatch(self):
        p = TruncGaussianMulti([0, 0], np.eye(2), [-1, -1], [1, 1])
        q = TruncGaussianMulti([0, 0, 0], np.eye(3), [-1] * 3, [1] * 3)
        with pytest.raises(DimensionMismatch):
            truncation_inequality_holds_mvn(p, q, CFG)


class TestTruncatedMvnTerms:
    def test_terms_compose_distance(self):
        p = TruncGaussianMulti([0, 0], np.eye(2), [-1, -1], [1, 1])
        q = TruncGaussianMulti([0.4, 0.0], np.eye(2), [-1, -1], [1, 1])
        terms = truncated_mvn_terms(p, q, CFG)
        rebuilt = (terms.untruncated
                   + 0.5 * (math.log(terms.prob_p.value) + math.log(terms.prob_q.value))
                   - math.log(terms.prob_overlap.value))
        assert rebuilt == terms.distance
        assert terms.combined_error >= 0
