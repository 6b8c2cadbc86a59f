"""Random projection bound/map/report and the PCA retention procedure."""

import math
import warnings

import numpy as np
import pytest

from distsim import (
    DegenerateData,
    DimensionMismatch,
    DistortionReport,
    DomainError,
    GroupDataset,
    InvalidDistribution,
    RunConfig,
    SampleMatrix,
    compare_groups,
    estimate_mvn,
    jl_distortion_report,
    jl_min_dimension,
    jl_project,
    pca_reduce,
)

from oracles import pca_scores


def bound_value(n, eps):
    return 4.0 * math.log(n) / (eps ** 2 / 2 - eps ** 3 / 3)


class TestMinDimension:
    def test_reference_point(self):
        assert jl_min_dimension(566, 0.5) == 305

    def test_output_satisfies_bound_and_predecessor_does_not(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 5000))
            eps = float(rng.uniform(0.05, 0.95))
            k = jl_min_dimension(n, eps)
            assert k >= bound_value(n, eps)
            assert k - 1 < bound_value(n, eps)

    def test_monotone_in_epsilon(self):
        ks = [jl_min_dimension(566, e) for e in (0.2, 0.4, 0.6, 0.8)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_edge_sanity(self):
        assert jl_min_dimension(2, 0.9999) > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            jl_min_dimension(1, 0.5)
        with pytest.raises(DomainError):
            jl_min_dimension(10, 1.0)

    @pytest.mark.parametrize("eps", [1e-155, 1e-300])
    def test_bound_past_the_float_range_refused(self, eps):
        # eps^2 / 2 is subnormal at 1e-155 (bound inf) and 0 at 1e-300
        with pytest.raises(DomainError, match="too small"):
            jl_min_dimension(10, eps)


class TestProject:
    def test_zero_matrix_maps_to_zero(self):
        out = jl_project(np.zeros((4, 10)), 3, seed=0)
        assert np.all(out == 0.0)

    def test_single_point_shape(self):
        out = jl_project(np.ones((1, 7)), 4, seed=0)
        assert out.shape == (1, 4)

    def test_deterministic(self):
        x = np.random.default_rng(0).standard_normal((5, 20))
        assert np.array_equal(jl_project(x, 6, seed=3), jl_project(x, 6, seed=3))
        assert not np.array_equal(jl_project(x, 6, seed=3), jl_project(x, 6, seed=4))

    def test_sample_matrix_gives_the_array_result(self):
        x = np.random.default_rng(1).standard_normal((3, 5))
        out = jl_project(SampleMatrix(x), 2, seed=1)
        assert type(out) is np.ndarray
        assert np.array_equal(out, jl_project(x, 2, seed=1))

    def test_norm_preserved_in_expectation(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 50))
        base = float(np.sum(x ** 2))
        ratios = []
        for seed in range(200):
            y = jl_project(x, 40, seed=seed)
            ratios.append(float(np.sum(y ** 2)) / base)
        assert 0.95 <= np.mean(ratios) <= 1.05

    def test_distortion_high_probability(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 300))
        k = jl_min_dimension(40, 0.4)
        rep = jl_distortion_report(x, jl_project(x, k, seed=0), 0.4)
        assert rep.fraction_within >= 0.99


class TestDistortionReport:
    def test_identity_projection(self):
        x = np.random.default_rng(0).standard_normal((10, 6))
        rep = jl_distortion_report(x, x, 0.3)
        assert rep.min_ratio == rep.max_ratio == rep.mean_ratio == 1.0
        assert rep.fraction_within == 1.0
        assert rep.pair_count == 45

    def test_doubling_scales_ratios_by_four(self):
        x = np.random.default_rng(1).standard_normal((8, 5))
        rep = jl_distortion_report(x, 2.0 * x, 0.5)
        assert rep.mean_ratio == pytest.approx(4.0, rel=1e-12)
        assert rep.fraction_within == 0.0
        rep_wide = jl_distortion_report(x, 2.0 * x, 3.5)
        assert rep_wide.fraction_within == 1.0

    def test_point_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            jl_distortion_report(np.ones((3, 2)), np.ones((4, 2)), 0.3)

    def test_coincident_points_excluded(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        rep = jl_distortion_report(x, x, 0.1)
        assert rep.pair_count == 2

    @pytest.mark.parametrize("call, error, message", [
        (lambda: jl_distortion_report(np.ones((1, 2)), np.ones((1, 2)), 0.3), DomainError,
         "need at least two points"),
        (lambda: jl_distortion_report(np.eye(3), np.eye(3), 0.0), DomainError,
         "epsilon must be positive"),
        (lambda: jl_distortion_report(np.ones((3, 2)), np.ones((3, 2)), 0.3), DegenerateData,
         "all original points coincide"),
        (lambda: DistortionReport(3, 1.0, 1.0, 1.0, 1.5), DomainError,
         "fraction_within must be in [0, 1]"),
        (lambda: jl_project(np.eye(3), 0, 1), DomainError, "k must be >= 1"),
    ], ids=["one-point", "zero-epsilon", "coincident", "fraction", "zero-k"])
    def test_refused(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


class TestJLConfig:
    """A jl comparison run projects to ``k`` when given, else to the bound for ``epsilon``."""

    @staticmethod
    def groups(t):
        rng = np.random.default_rng(21)
        return [GroupDataset(name, SampleMatrix(rng.standard_normal((t, 4))))
                for name in ("A", "B")]

    def test_auto_k(self):
        res = compare_groups(self.groups(566), RunConfig(
            method="jl", epsilon=0.5, fit="mvn", shrinkage=0.1))
        assert "projection dimension 305 derived from epsilon=0.5" in res.notes

    def test_explicit_k_kept(self):
        groups = self.groups(100)
        both = compare_groups(groups, RunConfig(method="jl", epsilon=0.3, k=12, fit="mvn"))
        k_only = compare_groups(groups, RunConfig(method="jl", k=12, fit="mvn"))
        assert not any("derived from epsilon" in n for n in both.notes)
        assert np.array_equal(both.matrices[0].values, k_only.matrices[0].values)


class TestPcaReduce:
    @pytest.mark.parametrize("shape, rank", [((40, 6), 6), ((5, 30), 5), ((25, 4), 1)],
                             ids=["tall", "wide", "rank-one"])
    def test_scores_equal_the_svd_oracle(self, shape, rank):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        out, _ = pca_reduce(SampleMatrix(x + 3.0), significant_digits=3)
        assert np.array_equal(out, pca_scores(x + 3.0))

    def test_rank_one_keeps_single_component(self):
        x = np.outer(np.linspace(1, 3, 25), [1.0, 2.0, -1.0, 0.5])
        out, kept = pca_reduce(SampleMatrix(x), significant_digits=6)
        assert kept == 1
        assert out.shape == (25, 4)

    def test_retention_depends_on_digits(self):
        rng = np.random.default_rng(4)
        # steeply decaying spectrum: coarse rounding hides small increments
        basis = rng.standard_normal((8, 8))
        scales = np.array([10.0, 1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6])
        x = rng.standard_normal((300, 8)) * scales @ basis
        _, kept_coarse = pca_reduce(SampleMatrix(x), significant_digits=2)
        _, kept_fine = pca_reduce(SampleMatrix(x), significant_digits=6)
        assert kept_fine > kept_coarse

    def test_truncated_scores_have_nonincreasing_variance(self):
        x = np.random.default_rng(5).standard_normal((60, 10)) * np.arange(1, 11)
        out, kept = pca_reduce(SampleMatrix(x), significant_digits=3)
        variances = out.var(axis=0)
        assert np.all(np.diff(variances) <= 1e-9)

    def test_wide_input_keeps_rows(self):
        # fewer observations than variables: rows are still the observations
        x = np.random.default_rng(6).standard_normal((5, 30))
        out, kept = pca_reduce(SampleMatrix(x), significant_digits=3)
        assert kept <= 5
        assert out.shape == (5, 5)

    def test_digits_below_one_refused(self):
        with pytest.raises(DomainError):
            pca_reduce(SampleMatrix(np.ones((3, 3)) + np.eye(3)), significant_digits=0)

    def test_degenerate_data(self):
        with pytest.raises(DegenerateData):
            pca_reduce(SampleMatrix(np.ones((5, 3))), significant_digits=3)

    def test_overflowing_variances_refused_without_warning(self):
        x = np.random.default_rng(0).standard_normal((50, 3)) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateData, match="overflow"):
                pca_reduce(SampleMatrix(x), significant_digits=3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_column_means_refused(self):
        x = np.random.default_rng(0).standard_normal((50, 3)) * 1.5e307
        with pytest.raises(DegenerateData, match="overflow"):
            pca_reduce(x, significant_digits=3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_centring_refused_before_the_svd(self):
        # the mean is finite, but -1.7e308 minus it is not: the SVD of -inf stalls
        x = np.array([[1.7e308, 1, 2], [-1.7e308, 2, 1], [1.7e308, 3, 5], [0, 1.5, 2.5]])
        with pytest.raises(DegenerateData, match="overflow"):
            pca_reduce(SampleMatrix(x), significant_digits=3)

    @pytest.mark.parametrize("shape", [(20, 3), (3, 20)], ids=["tall", "wide"])
    def test_returns_min_of_rows_and_columns(self, shape):
        x = np.random.default_rng(8).standard_normal(shape)
        out, _ = pca_reduce(SampleMatrix(x), significant_digits=3)
        assert type(out) is np.ndarray
        assert out.shape == (shape[0], 3)

    def test_deterministic(self):
        x = SampleMatrix(np.random.default_rng(9).standard_normal((30, 5)))
        a, _ = pca_reduce(x, significant_digits=3)
        b, _ = pca_reduce(x, significant_digits=3)
        assert np.array_equal(a, b)


class TestArrayInputs:
    """Every reduction takes an array-like, judged once: 2-D and finite."""

    REDUCTIONS = {
        "jl_project": lambda x: jl_project(x, 2, seed=3),
        "pca_reduce": lambda x: pca_reduce(x, significant_digits=3),
        "jl_distortion_report": lambda x: jl_distortion_report(x, x, 0.5),
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", REDUCTIONS)
    def test_non_finite_entry_refused(self, name, bad):
        x = np.random.default_rng(0).standard_normal((20, 4))
        x[7, 2] = bad
        with pytest.raises(InvalidDistribution, match="all entries must be finite"):
            self.REDUCTIONS[name](x)

    def test_nan_in_the_projected_points_refused(self):
        x = np.random.default_rng(0).standard_normal((20, 4))
        y = x.copy()
        y[3, 0] = math.nan
        with pytest.raises(InvalidDistribution):
            jl_distortion_report(x, y, 0.5)

    @pytest.mark.parametrize("name", REDUCTIONS)
    def test_one_dimensional_input_refused(self, name):
        with pytest.raises(DimensionMismatch):
            self.REDUCTIONS[name](np.arange(6.0))

    @pytest.mark.parametrize("reduce", [
        lambda x: jl_project(x, 3, seed=5),
        lambda x: pca_reduce(x, significant_digits=3)[0],
        lambda x: estimate_mvn(x, 0.0)[0].cov,
    ], ids=["jl_project", "pca_reduce", "estimate_mvn"])
    def test_sample_matrix_and_its_values_give_equal_bits(self, reduce):
        data = SampleMatrix(np.random.default_rng(4).standard_normal((30, 6)) * 3.0 + 1.0)
        assert np.array_equal(reduce(data), reduce(data.values))
        assert np.array_equal(reduce(data), reduce(data.values.tolist()))
