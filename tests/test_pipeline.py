"""Group loading, estimators, and the comparison pipeline."""

import gc
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from distsim import gaussian, pipeline, quadrature
from distsim.cli import main
from distsim.quadrature import QuadConfig
from distsim.reduce import jl_project, pca_reduce
from distsim import (
    DegenerateData,
    DimensionMismatch,
    DomainError,
    EmptyAfterCleaning,
    GroupDataset,
    InvalidDistribution,
    ParseError,
    RunConfig,
    SampleMatrix,
    compare_groups,
    estimate_mvn,
    estimate_truncated_uni,
    load_group,
)

from oracles import pca_scores, truncated_moments_mp


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def synthetic_groups(seed, t=200, n=8, scale_third=2.0):
    rng = np.random.default_rng(seed)
    cov = 0.5 * np.eye(n) + 0.5
    a = rng.multivariate_normal(np.zeros(n), cov, size=t)
    b = rng.multivariate_normal(np.zeros(n), cov, size=t)
    c = rng.multivariate_normal(np.zeros(n), scale_third * cov, size=t)
    return [GroupDataset(name, SampleMatrix(m))
            for name, m in (("A", a), ("B", b), ("C", c))]


class TestLoadGroup:
    def test_clean_file(self, tmp_path):
        path = tmp_path / "g.csv"
        write_csv(path, ["x", "y", "z"], [[1, 2, 3], [4, 5, 6]])
        g = load_group(path, "g")
        assert g.data.n_obs == 2 and g.data.n_vars == 3
        assert g.data.labels == ("x", "y", "z")

    def test_blank_column_dropped_with_warning(self, tmp_path):
        path = tmp_path / "g.csv"
        write_csv(path, ["x", "y", "z"], [[1, "", 3], [4, 5, 6]])
        with pytest.warns(UserWarning, match="dropped"):
            g = load_group(path, "g")
        assert g.data.n_vars == 2
        assert g.data.labels == ("x", "z")
        assert g.data.n_obs == 2

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "g.csv"
        write_csv(path, ["x", "y"], [[1, 2], ["oops", 4]])
        with pytest.raises(ParseError, match="row 3.*'x'"):
            load_group(path, "g")

    def test_all_columns_missing(self, tmp_path):
        path = tmp_path / "g.csv"
        write_csv(path, ["x", "y"], [["", ""]])
        with pytest.warns(UserWarning):
            with pytest.raises(EmptyAfterCleaning):
                load_group(path, "g")


class TestEstimateMvn:
    def test_exact_sample_moments_at_zero_shrinkage(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 4))
        fit, lam = estimate_mvn(SampleMatrix(x), 0.0)
        assert lam == 0.0
        assert np.allclose(fit.mu, x.mean(axis=0))
        assert np.allclose(fit.cov, np.cov(x, rowvar=False))

    def test_heavy_shrinkage_approaches_identity_scale(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((80, 3)) * np.array([1.0, 2.0, 3.0])
        fit, _ = estimate_mvn(SampleMatrix(x), 0.99)
        avg = np.mean(np.diag(np.cov(x, rowvar=False)))
        off = fit.cov - np.diag(np.diag(fit.cov))
        assert np.max(np.abs(off)) < 0.05 * avg

    def test_auto_raise_on_singular_sample(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((50, 5))
        x = np.hstack([base] * 8)  # 40 columns, rank 5
        fit, lam = estimate_mvn(SampleMatrix(x), 0.0)
        assert lam > 0.0
        eigvals = np.linalg.eigvalsh(fit.cov)
        assert eigvals.min() > 0
        assert eigvals.max() / eigvals.min() < 1e10

    def test_constant_data_rejected(self):
        with pytest.raises(DegenerateData):
            estimate_mvn(SampleMatrix(np.ones((30, 3))), 0.0)

    def test_overflowing_second_moments_refused_without_warning(self):
        x = np.random.default_rng(0).standard_normal((50, 3)) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateData, match="overflow"):
                estimate_mvn(SampleMatrix(x))

    def test_non_finite_observation_refused(self):
        x = np.random.default_rng(6).standard_normal((30, 3))
        x[4, 1] = math.nan
        with pytest.raises(InvalidDistribution, match="all entries must be finite"):
            estimate_mvn(x)


def scaled_residual(fit, x) -> float:
    """Largest of the mean gap in sd units and the relative variance gap."""
    m, v = truncated_moments_mp(fit.mu, fit.sigma, fit.lower, fit.upper)
    s_var = float(x.var(ddof=1))
    return max(abs(m - float(x.mean())) / math.sqrt(s_var), abs(v - s_var) / s_var)


class TestEstimateTruncatedUni:
    def test_recovers_truncation_parameters(self):
        rng = np.random.default_rng(3)
        draws = rng.standard_normal(500_000)
        draws = draws[(draws > -1.0) & (draws < 1.0)][:100_000]
        fit = estimate_truncated_uni(draws, bounds=(-1.0, 1.0))
        assert -0.05 < fit.mu < 0.05
        assert 0.9 < fit.sigma2 < 1.1

    def test_infinite_bounds_reduce_to_sample_moments(self):
        rng = np.random.default_rng(4)
        x = rng.normal(2.0, 1.5, size=1000)
        fit = estimate_truncated_uni(x, bounds=(-math.inf, math.inf))
        assert fit.mu == pytest.approx(x.mean())
        assert fit.sigma2 == pytest.approx(x.var(ddof=1))

    def test_observed_range_rule(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200_000)
        x = x[np.abs(x) < 1.5][:20_000]
        fit = estimate_truncated_uni(x, bounds="observed_range")
        assert fit.lower <= x.min() and fit.upper >= x.max()
        assert 0.8 < fit.sigma2 < 1.2

    def test_unmatchable_moments_fall_back_with_warning(self):
        # uniform data is the infinite-scale limit of a truncated normal,
        # so the finite solve cannot match and the fallback engages
        rng = np.random.default_rng(55)
        x = rng.uniform(-1.0, 1.0, size=5000)
        with pytest.warns(UserWarning, match="falling back") as record:
            fit = estimate_truncated_uni(x, bounds="observed_range")
        assert fit.mu == pytest.approx(x.mean())
        assert "flatter than any truncated normal" in str(record[0].message)

    def test_arithmetic_error_in_solve_falls_back_with_warning(self, monkeypatch):
        def underflowed(*args):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(pipeline, "fit_truncated_normal", underflowed)
        x = np.random.default_rng(56).standard_normal(300)
        with pytest.warns(UserWarning, match="falling back") as record:
            fit = estimate_truncated_uni(x, bounds="observed_range")
        assert fit.mu == pytest.approx(x.mean())
        assert fit.sigma2 == pytest.approx(x.var(ddof=1))
        assert "ZeroDivisionError: float division by zero" in str(record[0].message)

    def test_fixed_bounds_excluding_the_mean_fall_back_with_reason(self):
        x = np.random.default_rng(57).standard_normal(300)
        with pytest.warns(UserWarning, match="DomainError.*lo < mean < hi"):
            fit = estimate_truncated_uni(x, bounds=(5.0, 9.0))
        assert fit.mu == pytest.approx(x.mean())

    def test_converged_solve_is_kept(self):
        # a solve that reaches a 2e-16 residual must not be thrown away
        x = np.random.default_rng(65).standard_normal(250)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = estimate_truncated_uni(x)
        assert scaled_residual(fit, x) <= 1e-9
        assert (fit.mu, fit.sigma2) == pytest.approx((0.0528598, 1.2070827), abs=1e-7)

    def test_fixed_bound_sweep(self):
        """300 seeded truncnorm columns: a third each finite, lower-only, upper-only."""
        rng = np.random.default_rng(7)
        fallbacks = 0
        for i in range(300):
            lo, hi = np.sort(rng.uniform(-6.0, 5.0, size=2))
            lo, hi = [(lo, hi), (lo, math.inf), (-math.inf, hi)][i % 3]
            x = stats.truncnorm.rvs(lo, hi, size=400, random_state=rng)
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                fit = estimate_truncated_uni(x, bounds=(lo, hi))
            if record:
                assert "flatter than any truncated normal" in str(record[0].message)
                fallbacks += 1
            else:
                # near-flat fits (sigma ~100x the interval) keep ~2e-9 of rounding
                assert scaled_residual(fit, x) <= 5e-9
        assert fallbacks <= 22  # as many as the (mu, ln sigma) root solve this replaced

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateData):
            estimate_truncated_uni(np.ones(100))

    def test_too_few_observations(self):
        with pytest.raises(DomainError):
            estimate_truncated_uni(np.arange(5.0))

    def test_moments_actually_match(self):
        rng = np.random.default_rng(6)
        draws = rng.normal(0.3, 1.2, size=400_000)
        draws = draws[(draws > -0.5) & (draws < 2.0)][:50_000]
        fit = estimate_truncated_uni(draws, bounds=(-0.5, 2.0))
        from distsim.gaussian import truncated_moments

        m, v = truncated_moments(fit.mu, fit.sigma, fit.lower, fit.upper)
        assert m == pytest.approx(float(draws.mean()), abs=1e-5)
        assert v == pytest.approx(float(draws.var(ddof=1)), rel=1e-5)


def scaled_groups(scale):
    """Three 120x4 groups a shift of 0.3 apart, all multiplied by ``scale``."""
    rng = np.random.default_rng(4)
    return [GroupDataset(f"g{i}", SampleMatrix((rng.standard_normal((120, 4)) + 0.3 * i) * scale))
            for i in range(3)]


class TestUnitFree:
    """The normal fits give the same distances in any units, or refuse them."""

    @pytest.mark.parametrize("fit", ["mvn", "truncated"])
    @pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-100, 1e-150])
    def test_distances_do_not_depend_on_the_units(self, fit, scale):
        cfg = RunConfig(method="jl", k=3, fit=fit, seed=3, mc_samples=20_000)
        want = compare_groups(scaled_groups(1.0), cfg).matrices[0].values
        got = compare_groups(scaled_groups(scale), cfg).matrices[0].values
        assert want[0, 1] > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("fit", ["mvn", "truncated"])
    def test_variances_below_the_float_range_refused(self, fit):
        cfg = RunConfig(method="jl", k=3, fit=fit, seed=3, mc_samples=20_000)
        with pytest.raises(DegenerateData, match="sample variance underflows"):
            compare_groups(scaled_groups(1e-160), cfg)

    @pytest.mark.parametrize("estimate", [estimate_mvn, estimate_truncated_uni])
    def test_estimators_refuse_a_subnormal_variance(self, estimate):
        x = np.random.default_rng(0).standard_normal((250, 1)) * 1e-160
        with pytest.raises(DegenerateData, match="sample variance underflows"):
            estimate(x if estimate is estimate_mvn else x[:, 0])

    def test_observed_range_is_padded_relative_to_its_width(self):
        x = np.random.default_rng(0).standard_normal(250)
        fits = [estimate_truncated_uni(x * s) for s in (1.0, 1e-12)]
        assert fits[1].lower / 1e-12 == pytest.approx(fits[0].lower, rel=1e-12)
        assert fits[1].upper / 1e-12 == pytest.approx(fits[0].upper, rel=1e-12)


class TestCompareGroupsJl:
    def test_same_law_pair_is_closest(self):
        groups = synthetic_groups(seed=0)
        cfg = RunConfig(method="jl", k=4, fit="mvn", iterations=3, seed=1)
        res = compare_groups(groups, cfg)
        assert res.pair_summary["A->B"]["mean"] < res.pair_summary["A->C"]["mean"]
        assert res.pair_summary["A->B"]["mean"] < res.pair_summary["B->C"]["mean"]

    def test_matrices_symmetric_and_zero_diagonal(self):
        groups = synthetic_groups(seed=1)
        res = compare_groups(groups, RunConfig(method="jl", k=3, fit="mvn", seed=2))
        m = res.matrices[0]
        assert m.symmetric
        assert np.array_equal(m.values, m.values.T)
        assert np.all(np.diag(m.values) == 0.0)

    def test_identical_group_distance_zero(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((100, 6))
        groups = [GroupDataset("X", SampleMatrix(x)),
                  GroupDataset("Y", SampleMatrix(x.copy()))]
        res = compare_groups(groups, RunConfig(method="jl", k=3, fit="mvn", seed=3))
        assert res.matrices[0].values[0, 1] < 1e-8

    def test_deterministic_given_seed(self):
        groups = synthetic_groups(seed=2)
        cfg = RunConfig(method="jl", k=4, fit="mvn", iterations=2, seed=9)
        a = compare_groups(groups, cfg)
        b = compare_groups(groups, cfg)
        for ma, mb in zip(a.matrices, b.matrices):
            assert np.array_equal(ma.values, mb.values)

    def test_iteration_spread_reported_and_bounded(self):
        groups = synthetic_groups(seed=3)
        cfg = RunConfig(method="jl", k=4, fit="mvn", iterations=5, seed=4)
        res = compare_groups(groups, cfg)
        assert len(res.matrices) == 5
        assert len(res.argmin_pairs) == 5
        for pair in ("A->B", "A->C", "B->C"):
            s = res.pair_summary[pair]
            assert s["min"] <= s["mean"] <= s["max"]
            assert (s["max"] - s["min"]) / s["mean"] < 1.0

    def test_epsilon_derives_dimension(self):
        groups = synthetic_groups(seed=4, t=40, n=6)
        cfg = RunConfig(method="jl", epsilon=0.9, fit="mvn", seed=5, shrinkage=0.1)
        res = compare_groups(groups, cfg)
        assert any("derived from epsilon" in n for n in res.notes)

    def test_truncated_and_discrete_fits_run(self):
        groups = synthetic_groups(seed=5, t=150, n=5)
        cfg_t = RunConfig(method="jl", k=2, fit="truncated", seed=6,
                          mc_samples=20_000)
        res_t = compare_groups(groups, cfg_t)
        assert np.all(np.isfinite(res_t.matrices[0].values))
        cfg_d = RunConfig(method="jl", k=3, fit="discrete", n_nodes=3, seed=7)
        res_d = compare_groups(groups, cfg_d)
        assert np.all(res_d.matrices[0].values >= 0)

    def test_differing_observation_counts_rejected(self):
        rng = np.random.default_rng(8)
        groups = [
            GroupDataset("A", SampleMatrix(rng.standard_normal((50, 4)))),
            GroupDataset("B", SampleMatrix(rng.standard_normal((60, 4)))),
        ]
        with pytest.raises(DimensionMismatch):
            compare_groups(groups, RunConfig(method="jl", k=2, seed=0))

    def test_log_returns_transform(self):
        rng = np.random.default_rng(9)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=(120, 6)), axis=0))
        groups = [GroupDataset("A", SampleMatrix(prices)),
                  GroupDataset("B", SampleMatrix(prices * 1.5))]
        cfg = RunConfig(method="jl", k=3, fit="mvn", seed=10, log_returns=True)
        res = compare_groups(groups, cfg)
        # identical returns after scaling: distance collapses to zero
        assert res.matrices[0].values[0, 1] < 1e-8

    def test_log_returns_need_two_levels(self):
        groups = [GroupDataset(name, SampleMatrix([[1.0, 2.0]])) for name in "AB"]
        with pytest.raises(InvalidDistribution, match="at least one row"):
            compare_groups(groups, RunConfig(method="jl", k=2, seed=1, log_returns=True))

    def test_closest_pair_is_never_a_group_with_itself(self):
        # the observed boxes are disjoint, so every off-diagonal distance is inf
        rng = np.random.default_rng(5)
        groups = [GroupDataset(name, SampleMatrix(rng.standard_normal((60, 3)) + shift))
                  for name, shift in (("a", 0.0), ("far", 50.0))]
        res = compare_groups(groups, RunConfig(method="jl", k=2, fit="truncated", seed=1))
        assert res.matrices[0].values[0, 1] == math.inf
        assert res.argmin_pairs == (("a", "far"),)

    def test_summary_and_closest_pairs_equal_a_per_pair_loop(self):
        groups = synthetic_groups(seed=6, t=60, n=5)
        res = compare_groups(groups, RunConfig(method="jl", k=3, fit="mvn", iterations=20,
                                               seed=2))
        off = [(i, j) for i in range(3) for j in range(3) if i != j]
        for (i, j) in off:
            dists = [m.values[i, j] for m in res.matrices]
            assert res.pair_summary[f"{res.labels[i]}->{res.labels[j]}"] == {
                "mean": float(np.mean(dists)), "min": float(np.min(dists)),
                "max": float(np.max(dists))}
        for m, pair in zip(res.matrices, res.argmin_pairs):
            i, j = min(off, key=lambda ij: m.values[ij])
            assert pair == (res.labels[i], res.labels[j])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_log_returns_leaving_the_float_range_refused(self):
        levels = np.array([[1e-300, 1.0], [1e300, 2.0], [1e-300, 3.0], [1.0, 4.0]])
        groups = [GroupDataset(name, SampleMatrix(levels)) for name in "AB"]
        cfg = RunConfig(method="jl", k=2, fit="mvn", seed=1, log_returns=True)
        with pytest.raises(DegenerateData, match="log returns overflow"):
            compare_groups(groups, cfg)

    def test_each_iteration_maps_each_dimension_by_its_seed(self):
        # iteration seed it, source dimension d: the map's seed is the first word
        # of SeedSequence(entropy=it.entropy, spawn_key=it.spawn_key + (d,))
        groups = mixed_width_groups(36, widths=(5, 3, 5, 4))
        cfg = RunConfig(method="jl", k=3, fit="mvn", seed=12, iterations=2)
        matrices = compare_groups(groups, cfg).matrices
        for matrix, it in zip(matrices, np.random.SeedSequence(cfg.seed).spawn(2)):
            fits = []
            for grp in groups:
                seed = np.random.SeedSequence(
                    entropy=it.entropy, spawn_key=it.spawn_key + (grp.data.n_vars,),
                ).generate_state(1)[0]
                projected = jl_project(np.asarray(grp.data.values), cfg.k, seed)
                fits.append(pipeline._fit_mvn(grp.name, projected, cfg, []))
            for i in range(len(groups)):
                for j in range(len(groups)):
                    want = 0.0 if i == j else gaussian.bc_mvn(fits[i], fits[j]).distance
                    assert matrix.values[i, j] == want
        assert not np.array_equal(matrices[0].values, matrices[1].values)


class TestCompareGroupsPca:
    def test_full_matrix_reported(self):
        groups = synthetic_groups(seed=10)
        cfg = RunConfig(method="pca", sig_digits=2, fit="mvn", seed=11)
        res = compare_groups(groups, cfg)
        m = res.matrices[0]
        assert not m.symmetric
        assert m.values.shape == (3, 3)
        assert np.all(m.values[~np.eye(3, dtype=bool)] > 0)

    def test_sig_digits_changes_granularity(self):
        rng = np.random.default_rng(12)
        t, n = 150, 10
        spectra = [np.geomspace(5.0, 1e-4, n), np.geomspace(3.0, 1e-3, n),
                   np.geomspace(8.0, 1e-5, n)]
        groups = []
        for i, sc in enumerate(spectra):
            basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
            data = rng.standard_normal((t, n)) * np.sqrt(sc) @ basis.T
            groups.append(GroupDataset(f"G{i}", SampleMatrix(data)))
        res2 = compare_groups(groups, RunConfig(method="pca", sig_digits=2,
                                                fit="mvn", seed=13))
        res6 = compare_groups(groups, RunConfig(method="pca", sig_digits=6,
                                                fit="mvn", seed=13))
        assert not np.array_equal(res2.matrices[0].values, res6.matrices[0].values)

    def test_dimension_rebalance_noted(self):
        rng = np.random.default_rng(14)
        # second group has fewer variables than the first group retains,
        # so the first must be projected down to match
        a = rng.standard_normal((100, 8))
        b = rng.standard_normal((100, 3))
        groups = [GroupDataset("wide", SampleMatrix(a)),
                  GroupDataset("narrow", SampleMatrix(b))]
        cfg = RunConfig(method="pca", sig_digits=6, fit="mvn", seed=15)
        res = compare_groups(groups, cfg)
        assert any("projected" in note for note in res.notes)
        assert np.all(np.isfinite(res.matrices[0].values))

    @pytest.mark.parametrize("method", ["jl", "pca"])
    def test_identical_groups_discrete_distance_is_positive_zero(self, method):
        data = SampleMatrix(np.random.default_rng(0).standard_normal((60, 4)))
        groups = [GroupDataset("A", data), GroupDataset("B", data)]
        cfg = RunConfig(method=method, k=3, sig_digits=2, fit="discrete", seed=1)
        res = compare_groups(groups, cfg)
        assert all(math.copysign(1.0, x) == 1.0 for x in res.matrices[0].values.ravel())
        assert all(math.copysign(1.0, s["min"]) == 1.0 for s in res.pair_summary.values())

    def test_config_validation(self):
        with pytest.raises(DomainError):
            RunConfig(method="nope")
        with pytest.raises(DomainError):
            RunConfig(method="jl")  # needs k or epsilon
        with pytest.raises(DomainError):
            RunConfig(method="jl", k=3, iterations=0)

    def test_config_roundtrip(self):
        cfg = RunConfig(method="pca", sig_digits=4, fit="truncated",
                        bounds=(-1.0, 5.0), seed=3)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(DomainError):
            RunConfig.from_dict({"method": "pca", "mystery": 1})

    @pytest.mark.parametrize("config", [
        [],
        {"method": "pca", "iterations": "3"},
        {"method": "pca", "seed": None},
        {"method": "pca", "log_returns": 1},
        {"method": "pca", "n_nodes": 2.5},
        {"method": "pca", "bounds": [1]},
        {"method": "pca", "bounds": [0, "1"]},
        {"method": "pca", "bounds": "full"},
        {"method": "pca", "fit": "truncated", "bounds": [False, True]},
        {"method": "pca", "fit": "truncated", "bounds": [0.0, True]},
        {"method": "pca", "mc_samples": 10},
        {"method": "pca", "fit": "bogus"},
        {"method": "pca", "shrinkage": 1.0},
        {"method": "pca", "sig_digits": 0},
        {"method": "pca", "n_nodes": 0},
        {"method": "jl", "k": 2, "fit": "mvn", "mc_samples": 999},
    ])
    def test_malformed_config_refused(self, config):
        with pytest.raises(DomainError):
            RunConfig.from_dict(config)


def two_groups(t=30):
    rng = np.random.default_rng(8)
    return [GroupDataset(name, SampleMatrix(rng.standard_normal((t, 3)) + 2.0))
            for name in ("A", "B")]


#: (call, error, message) for each input the pipeline refuses before fitting
REFUSED = [
    (lambda: GroupDataset("", SampleMatrix(np.ones((3, 2)))), DomainError,
     "group name must be nonempty"),
    (lambda: GroupDataset("A", SampleMatrix(np.ones((3, 1)))), InvalidDistribution,
     "a group needs at least 2 variables"),
    (lambda: estimate_mvn(np.ones((1, 3))), DegenerateData, "need at least two observations"),
    (lambda: estimate_truncated_uni(np.r_[np.arange(12.0), math.nan]), DomainError,
     "observations must be finite"),
    (lambda: estimate_truncated_uni(np.arange(12.0), bounds=(2.0, 2.0)), DomainError,
     "fixed bounds must satisfy lower < upper"),
    (lambda: compare_groups(two_groups()[:1], RunConfig(method="jl", k=2)), DomainError,
     "need at least two groups"),
    (lambda: compare_groups([two_groups()[0]] * 2, RunConfig(method="jl", k=2)), DomainError,
     "group names must be unique"),
    (lambda: compare_groups([GroupDataset(g.name, SampleMatrix(np.asarray(g.data) - 2.0))
                             for g in two_groups()],
                            RunConfig(method="jl", k=2, log_returns=True)), DomainError,
     "log returns need strictly positive levels"),
]


@pytest.mark.parametrize("call, error, message", REFUSED,
                         ids=[f"{e.__name__}-{i}" for i, (_, e, _) in enumerate(REFUSED)])
def test_malformed_input_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def mixed_width_groups(seed, widths=(6, 3, 5), t=60):
    """Correlated normal groups of different widths, so that on the PCA path
    a wide group's retained count can exceed a narrow group's columns."""
    rng = np.random.default_rng(seed)
    groups = []
    for g, w in enumerate(widths):
        mixing = rng.normal(0.0, 0.5, size=(w, w)) + np.eye(w)
        data = rng.standard_normal((t, w)) @ mixing + rng.normal(0.0, 1.0, size=w)
        groups.append(GroupDataset(f"G{g}", SampleMatrix(data)))
    return groups


def near_collinear_groups(seed, t=120):
    """``N`` repeats three columns with 1e-7 noise; ``W`` is well conditioned."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((t, 3))
    near = np.hstack([base, base + 1e-7 * rng.standard_normal((t, 3))])
    return [GroupDataset("N", SampleMatrix(near)),
            GroupDataset("W", SampleMatrix(rng.standard_normal((t, 6))))]


class TestShrinkageLadder:
    @pytest.mark.parametrize("fit", ["mvn", "truncated"])
    def test_near_collinear_group_raises_shrinkage_with_note(self, fit):
        cfg = RunConfig(method="jl", k=5, fit=fit, seed=3, mc_samples=2000)
        res = compare_groups(near_collinear_groups(21), cfg)
        raised = [n for n in res.notes if "shrinkage raised" in n]
        assert [n.split(":")[0] for n in raised] == ["N"]
        assert np.isfinite(res.matrices[0].values).all()

    def test_truncated_fit_starts_at_configured_shrinkage(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((400, 3)) @ np.array([[1.0, 0.6, 0.2],
                                                      [0.0, 1.0, 0.5],
                                                      [0.0, 0.0, 1.0]])
        notes = []
        cfg = RunConfig(method="jl", k=3, fit="truncated", shrinkage=0.25)
        fit = pipeline._fit_truncated_mvn("X", x, cfg, notes)
        sds = np.sqrt(np.diag(fit.cov))
        corr = np.corrcoef(x, rowvar=False)
        off = ~np.eye(3, dtype=bool)
        assert fit.cov[off] / np.outer(sds, sds)[off] == pytest.approx(0.75 * corr[off])
        assert notes == []


class TestThreadsVariable:
    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
    def test_bad_value_rejected(self, raw, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("DISTSIM_THREADS", raw)
        groups = synthetic_groups(seed=30, t=40, n=4)
        with pytest.raises(DomainError, match="DISTSIM_THREADS"):
            compare_groups(groups, RunConfig(method="jl", k=2, seed=1))
        paths = []
        for g in groups:
            path = tmp_path / f"{g.name}.csv"
            write_csv(path, g.data.labels, g.data.values.tolist())
            paths.append(str(path))
        assert main(["compare", *paths, "--method", "jl", "--k", "2"]) == 1
        assert "DISTSIM_THREADS" in capsys.readouterr().err


class TestThreadDeterminism:
    @pytest.mark.parametrize("args", [
        ["--method", "pca", "--sig-digits", "6", "--fit", "mvn"],
        ["--method", "pca", "--sig-digits", "6", "--fit", "discrete"],
        ["--method", "jl", "--k", "2", "--fit", "truncated", "--mc-samples", "2000"],
    ], ids=["mvn-pca", "discrete-pca", "truncated-jl"])
    def test_summary_identical_at_one_and_two_threads(self, args, monkeypatch,
                                                      tmp_path, capsys):
        paths = []
        for g in mixed_width_groups(31):
            path = tmp_path / f"{g.name}.csv"
            with open(path, "w") as fh:
                fh.write(",".join(g.data.labels) + "\n")
                for row in g.data.values:
                    fh.write(",".join(repr(float(x)) for x in row) + "\n")
            paths.append(str(path))
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("DISTSIM_THREADS", threads)
            out = tmp_path / f"out{threads}"
            assert main(["compare", *paths, *args, "--seed", "5",
                         "--out", str(out)]) == 0
            outputs[threads] = [(out / f).read_bytes()
                                for f in ("summary.json", "matrix_iter0.csv")]
        capsys.readouterr()
        assert outputs["1"] == outputs["2"]
        if "pca" in args:
            assert b"projected" in outputs["1"][0]


    def test_truncated_run_with_early_stops_identical_at_one_and_two_threads(
            self, monkeypatch, tmp_path, capsys):
        # at the default mc_samples most boxes stop before their cap of 12 x 32,768 points
        paths = []
        for g in mixed_width_groups(37, widths=(4, 5, 4), t=120):
            paths.append(tmp_path / f"{g.name}.csv")
            write_csv(paths[-1], g.data.labels, g.data.values.tolist())
        original, points = quadrature._box_prob, []

        def recorded(*args):
            result = original(*args)
            points.append(result.evaluations)
            return result

        monkeypatch.setattr(quadrature, "_box_prob", recorded)
        summaries = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("DISTSIM_THREADS", threads)
            out = tmp_path / f"out{threads}"
            assert main(["compare", *map(str, paths), "--method", "jl", "--k", "3",
                         "--fit", "truncated", "--seed", "3", "--out", str(out)]) == 0
            summaries[threads] = (out / "summary.json").read_bytes()
        capsys.readouterr()
        assert summaries["1"] == summaries["2"]
        assert min(points) < 12 * 32_768


def counting(monkeypatch, module, names) -> dict:
    """Wrap ``module.<name>`` for each name; returns the live call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*a, _name=name, _fn=original, **kw):
            calls[_name] += 1
            return _fn(*a, **kw)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestPcaFitOnce:
    @pytest.mark.parametrize("fit", ["mvn", "discrete"])
    def test_matches_per_pair_decomposition(self, fit):
        groups = mixed_width_groups(32)
        cfg = RunConfig(method="pca", sig_digits=6, fit=fit, seed=7)
        matrix = compare_groups(groups, cfg).matrices[0].values
        iter_seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
        self.check_against_per_pair(groups, cfg, matrix, iter_seed)

    def test_every_iteration_matches_per_pair_decomposition(self):
        groups = mixed_width_groups(32)
        cfg = RunConfig(method="pca", sig_digits=6, fit="mvn", seed=7, iterations=3)
        matrices = compare_groups(groups, cfg).matrices
        iter_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.iterations)
        for matrix, iter_seed in zip(matrices, iter_seeds):
            self.check_against_per_pair(groups, cfg, matrix.values, iter_seed)
        # the projected pairs use a per-iteration map
        assert not np.array_equal(matrices[0].values, matrices[1].values)

    @staticmethod
    def check_against_per_pair(groups, cfg, matrix, iter_seed):
        fit_fn, distance_fn = pipeline._FAMILIES[cfg.fit]
        quad = QuadConfig(seed=int(iter_seed.generate_state(1)[0]))
        projected = 0
        for i, j in [(0, 1), (1, 0), (0, 2), (2, 1)]:
            kept_i = pca_reduce(groups[i].data, significant_digits=cfg.sig_digits)[1]
            other = pca_scores(groups[j].data.values)
            kept_j = min(kept_i, other.shape[1])
            lead = np.ascontiguousarray(pca_scores(groups[i].data.values)[:, :kept_i])
            if kept_j < kept_i:
                projected += 1
                seed = np.random.SeedSequence(
                    entropy=iter_seed.entropy, spawn_key=iter_seed.spawn_key + (7, i, j),
                ).generate_state(1)[0]
                lead = np.asarray(jl_project(lead, kept_j, seed))
            fit_i = fit_fn(groups[i].name, lead, cfg, [])
            fit_j = fit_fn(groups[j].name, np.ascontiguousarray(other[:, :kept_j]), cfg, [])
            assert distance_fn(fit_i, fit_j, quad) == matrix[i, j]
        assert projected > 0

    def test_each_group_decomposed_and_fitted_once(self, monkeypatch):
        groups = mixed_width_groups(33, widths=(6, 3, 5, 4))
        cfg = RunConfig(method="pca", sig_digits=6, fit="mvn", seed=8)
        kept = [pca_reduce(g.data, significant_digits=cfg.sig_digits)[1] for g in groups]
        pairs = [(i, j) for i in range(len(groups)) for j in range(len(groups)) if i != j]
        count = {(i, j): min(kept[i], groups[j].data.n_vars) for i, j in pairs}
        projected = sum(count[p] < kept[p[0]] for p in pairs)
        fit_keys = ({(j, count[i, j]) for i, j in pairs}
                    | {(i, kept[i]) for i, j in pairs if count[i, j] == kept[i]})
        calls = counting(monkeypatch, pipeline, ["pca_reduce", "estimate_mvn"])
        compare_groups(groups, cfg)
        assert projected > 0
        assert calls["pca_reduce"] == len(groups)
        assert calls["estimate_mvn"] <= len(fit_keys) + projected
        assert calls["estimate_mvn"] < 2 * len(pairs)

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_iterations_repeat_only_projected_leads(self, monkeypatch, iterations):
        # widths 5, 3, 4 keep every component, so 3 of the 6 ordered pairs
        # project their first group: 5 fits per run plus 3 per iteration
        groups = mixed_width_groups(35, widths=(5, 3, 4))
        cfg = RunConfig(method="pca", sig_digits=6, fit="mvn", seed=9,
                        iterations=iterations)
        calls = counting(monkeypatch, pipeline, ["pca_reduce", "estimate_mvn"])
        res = compare_groups(groups, cfg)
        assert sum("projected" in note for note in res.notes) == 3
        assert calls == {"pca_reduce": 3, "estimate_mvn": 5 + 3 * iterations}


def truncated_run(groups, iterations=1):
    return compare_groups(groups, RunConfig(method="jl", k=3, fit="truncated", seed=2,
                                            iterations=iterations, mc_samples=2000))


class TestBoxNormaliserMemo:
    """Each group's box normaliser is computed once per iteration."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_one_normaliser_per_group(self, monkeypatch, threads):
        monkeypatch.setenv("DISTSIM_THREADS", threads)
        groups = mixed_width_groups(34, widths=(5, 4, 6, 5), t=120)
        g, iterations = len(groups), 2
        box_calls = counting(monkeypatch, gaussian, ["mvn_rect_prob"])
        computed = counting(monkeypatch, quadrature, ["_box_prob"])
        res = truncated_run(groups, iterations)
        assert np.isfinite(res.matrices[1].values).all()
        pairs = g * (g - 1) // 2
        # every pair still asks for its three boxes
        assert box_calls["mvn_rect_prob"] == iterations * 3 * pairs
        # threads racing to one normaliser wait for a single computation
        assert computed["_box_prob"] == iterations * (g + pairs)

    def test_memo_dies_with_the_fits(self, monkeypatch):
        gc.collect()
        before = len(quadrature._BOXES)
        sizes = []
        original = quadrature._box_prob

        def recorded(*args):
            sizes.append(len(quadrature._BOXES))
            return original(*args)

        monkeypatch.setattr(quadrature, "_box_prob", recorded)
        truncated_run(mixed_width_groups(36, widths=(4, 5, 4), t=120))
        assert max(sizes) > before
        gc.collect()
        assert len(quadrature._BOXES) == before
