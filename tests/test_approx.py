"""Mixture density, grid convolution, and moment-matched approximations."""

import json
import math

import mpmath
import numpy as np
import pytest

from distsim import (
    DegenerateData,
    DensityOverflow,
    DiscreteApprox,
    DomainError,
    GridTooCoarse,
    InvalidDistribution,
    MomentMatrixNotPD,
    NLNComponent,
    NonConvergence,
    bc_coefficient_discrete,
    integrate_1d,
    moment_match,
    nln_density,
    nln_sum_density,
    to_json,
)
from distsim import approx, quadrature
from distsim.approx import DEFAULT_GRID_SPAN

from oracles import (
    GAUSS_HERMITE_2_NODES,
    GAUSS_HERMITE_2_WEIGHTS,
    GAUSS_HERMITE_3_NODES,
    GAUSS_HERMITE_3_WEIGHTS,
    nln_density_mp,
    normal_pdf,
)

#: raw moments of the standard normal, m_0..m_5
STD_NORMAL_MOMENTS = np.array([1.0, 0.0, 1.0, 0.0, 3.0, 0.0])

#: 500 raw price levels drawn from N(100, 5^2)
PRICES = np.random.default_rng(0).normal(100.0, 5.0, 500)


def moment_rows(n):
    """Raw moments m_0..m_{2n-1} of PRICES and four seeded samples, one row each."""
    rng = np.random.default_rng(n)
    samples = [PRICES, rng.standard_normal(250), rng.gamma(2.0, 1.5, 400),
               rng.uniform(-1.0, 3.0, 300), 0.02 * rng.standard_t(4, 250)]
    return np.array([[np.mean(x ** p) for p in range(2 * n)] for x in samples])


#: components like the benchmark's (k 2-6, |mu_y| < 0.1, sigma_y 0.2-0.5) and
#: both ends of the mixing width
ORACLE_COMPONENTS = [NLNComponent(6, -0.08, 0.37), NLNComponent(4, -0.05, 0.32),
                     NLNComponent(5, 0.07, 0.49), NLNComponent(1, 0.0, 1e-3),
                     NLNComponent(3, -0.5, 2.0)]


def half_grid(comp, points=2049):
    """``|x|`` of a default-span grid: 0 to 12 standard deviations."""
    return np.linspace(0.0, DEFAULT_GRID_SPAN * math.sqrt(comp.variance), points)


class TestNlnDensity:
    def test_degenerate_mixing_is_exact_normal(self):
        comp = NLNComponent(1, 0.0, 0.0)
        assert nln_density(0.0, comp) == pytest.approx(1 / math.sqrt(2 * math.pi),
                                                       abs=1e-15)
        # Y is the constant mu_y: X e^mu_y ~ N(0, e^(2 mu_y) / k)
        comp4 = NLNComponent(4, 0.7, 0.0)
        xs = np.linspace(-2, 2, 9)
        for x in xs:
            assert nln_density(float(x), comp4) == pytest.approx(
                float(normal_pdf(x, 0.0, math.exp(1.4) / 4)), rel=1e-15, abs=1e-16
            )
            # the limit of the mixing integral as sigma_y shrinks
            assert nln_density(float(x), comp4) == pytest.approx(
                nln_density_mp(float(x), 4, 0.7, 1e-6), rel=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma", [1e-160, 1e-300])
    def test_vanishing_mixing_width_is_the_normal(self, sigma):
        # sigma_y^2 is subnormal at 1e-160 and 0 at 1e-300: Y is the constant mu_y
        xs = np.linspace(-3.0, 3.0, 25)
        got = nln_density(xs, NLNComponent(2, 0.0, sigma))
        assert np.allclose(got, normal_pdf(xs, 0.0, 0.5), rtol=1e-15, atol=0.0)

    def test_even_symmetry(self):
        for comp in (NLNComponent(2, 0.3, 0.8), *ORACLE_COMPONENTS):
            for u in (0.1, 0.5, 1.7):
                assert nln_density(u, comp) == nln_density(-u, comp)
            xs = half_grid(comp, 64)
            assert np.array_equal(nln_density(xs, comp), nln_density(-xs, comp))

    @pytest.mark.parametrize("comp", ORACLE_COMPONENTS, ids=repr)
    def test_array_matches_oracle_to_grid_edge(self, comp):
        xs = half_grid(comp)
        got = nln_density(xs, comp)
        for i in (0, 128, 512, 1024, 2048):
            want = nln_density_mp(xs[i], comp.k, comp.mu_y, comp.sigma_y)
            assert got[i] == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("comp, u", [
        (NLNComponent(6, -0.08, 0.37), 30.0), (NLNComponent(6, -0.08, 0.37), 300.0),
        (NLNComponent(1, 0.0, 1.5), 1e6), (NLNComponent(1, 0.0, 1.5), 1e8),
    ], ids=repr)
    def test_far_tail_peak_beyond_ten_sigma(self, comp, u):
        # the mixing integrand peaks more than 10 sigma_y above mu_y here
        want = nln_density_mp(u, comp.k, comp.mu_y, comp.sigma_y)
        assert nln_density(u, comp) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("u", [1e4, 1e6, 1e10])
    def test_deep_tail_at_wide_mixing(self, u):
        # each integrand is scaled to its peak, so a value of 1e-19 is held to
        # the relative tolerance like one of 1e-4
        comp = NLNComponent(2, 0.5, 4.0)
        want = nln_density_mp(u, comp.k, comp.mu_y, comp.sigma_y)
        assert nln_density(u, comp) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("comp", ORACLE_COMPONENTS, ids=repr)
    def test_scalar_and_array_paths_agree(self, comp):
        xs = half_grid(comp)
        got = nln_density(xs, comp)
        for i in (0, 300, 1500, 2048):
            scalar = nln_density(float(xs[i]), comp)
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(got[i], rel=1e-12, abs=0.0)

    def test_array_shape_kept_at_zero_mixing_width(self):
        comp = NLNComponent(4, 0.7, 0.0)
        xs = np.linspace(-2, 2, 6).reshape(2, 3)
        got = nln_density(xs, comp)
        assert isinstance(got, np.ndarray) and got.shape == (2, 3)
        assert np.allclose(got, normal_pdf(xs, 0.0, math.exp(1.4) / 4), rtol=1e-15, atol=0.0)
        assert isinstance(nln_density(0.5, comp), float)

    def test_infinite_and_nan_arguments(self):
        comp = NLNComponent(2, 0.1, 0.5)
        assert np.array_equal(nln_density(np.array([-math.inf, math.inf]), comp), [0.0, 0.0])
        with pytest.raises(DomainError):
            nln_density(np.array([0.5, math.nan]), comp)

    def test_peak_beyond_float_range_raises(self):
        # f(0) = sqrt(k / 2 pi) exp(sigma_y^2 / 2 - mu_y): 0.4 e^684.5 is a float, e^800 is not
        near = NLNComponent(1, 0.0, 37.0)
        want = math.exp(0.5 * 37.0 ** 2 + 0.5 * math.log(1.0 / (2.0 * math.pi)))
        assert nln_density(0.0, near) == pytest.approx(want, rel=1e-12, abs=0.0)
        for u in (0.0, np.array([0.0, 1.0, 1e6])):
            with pytest.raises(DensityOverflow):
                nln_density(u, NLNComponent(1, 0.0, 40.0))

    @pytest.mark.parametrize("max_evals", [21, 24 * 21])
    def test_small_budget_raises(self, max_evals, monkeypatch):
        # the least budget, and one that allows only the first pass
        monkeypatch.setattr(quadrature, "MAX_EVALS", max_evals)
        with pytest.raises(NonConvergence):
            nln_density(100.0, NLNComponent(1, 0.0, 2.0))

    @pytest.mark.parametrize("sigma", [0.5, 20.0, 36.0])
    def test_zero_against_closed_form(self, sigma):
        # f(0) = sqrt(k / 2 pi) exp(sigma_y^2 / 2 - mu_y); past sigma_y = 35 the
        # tail term of the integrand overflows at the lower end of the range
        comp = NLNComponent(2, 0.3, sigma)
        want = math.sqrt(comp.k / (2 * math.pi)) * math.exp(0.5 * sigma * sigma - comp.mu_y)
        assert nln_density(0.0, comp) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_budget_below_first_full_pass(self, monkeypatch):
        # 168 nodes make 8 panels, enough for a mixing width of 1e-3
        monkeypatch.setattr(quadrature, "MAX_EVALS", 168)
        comp = NLNComponent(2, 0.1, 1e-3)
        got = nln_density([0.0, 0.5, 2.0], comp)
        want = [nln_density_mp(u, comp.k, comp.mu_y, comp.sigma_y) for u in (0.0, 0.5, 2.0)]
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)

    def test_matches_simulation_histogram(self):
        comp = NLNComponent(1, 0.0, 1.0)
        rng = np.random.default_rng(0)
        n = 10_000_000
        draws = rng.standard_normal(n) * np.exp(rng.standard_normal(n))
        width = 0.05
        for u in (0.5, 1.0, 2.0):
            inside = np.count_nonzero(np.abs(draws - u) <= width / 2)
            p_hat = inside / n
            dens_hat = p_hat / width
            se = math.sqrt(p_hat * (1 - p_hat) / n) / width
            assert abs(nln_density(u, comp) - dens_hat) <= 3 * se + 1e-4

    def test_normalizes_across_parameter_battery(self):
        for sigma in (0.0, 0.25, 1.0, 2.0):
            for k in (1, 4, 16):
                comp = NLNComponent(k, 0.0, sigma)
                mass = integrate_1d(lambda u: nln_density(u, comp),
                                    -math.inf, math.inf).value
                assert mass == pytest.approx(1.0, abs=1e-6)

    def test_small_sigma_approaches_normal(self):
        for k in (1, 4):
            comp = NLNComponent(k, 0.0, 1e-3)
            xs = np.linspace(-5 / math.sqrt(k), 5 / math.sqrt(k), 101)
            gap = max(abs(nln_density(float(x), comp)
                          - float(normal_pdf(x, 0.0, 1.0 / k))) for x in xs)
            assert gap < 1e-3

    def test_component_validation(self):
        with pytest.raises(DomainError):
            NLNComponent(0, 0.0, 1.0)
        with pytest.raises(DomainError):
            NLNComponent(1, 0.0, -0.1)


class TestNlnSumDensity:
    def test_single_component_equals_pointwise_density(self):
        comp = NLNComponent(1, 0.0, 0.5)
        grid = nln_sum_density([comp], n_points=1024)
        idx = np.searchsorted(grid.x, 0.4)
        assert grid.values[idx] == pytest.approx(
            nln_density(float(grid.x[idx]), comp), rel=1e-9
        )

    def test_two_degenerate_components_give_normal_sum(self):
        comp = NLNComponent(1, 0.0, 0.0)
        grid = nln_sum_density([comp, comp])
        want = normal_pdf(grid.x, 0.0, 2.0)
        assert np.max(np.abs(grid.values - want)) < 1e-4
        assert grid.mass() == pytest.approx(1.0, abs=1e-4)

    def test_three_mixed_components_match_simulation(self):
        comps = [NLNComponent(3, 0.0, 0.25), NLNComponent(3, 0.2, 0.5),
                 NLNComponent(3, 0.0, 0.0)]
        grid = nln_sum_density(comps)
        rng = np.random.default_rng(1)
        n = 10_000_000
        total = np.zeros(n)
        for c in comps:
            x = rng.standard_normal(n) / math.sqrt(c.k)
            y = c.mu_y + c.sigma_y * rng.standard_normal(n)
            total += x * np.exp(y)
        for u in (-1.0, 0.0, 0.5, 1.5):
            width = 0.04
            p_hat = np.count_nonzero(np.abs(total - u) <= width / 2) / n
            dens_hat = p_hat / width
            se = math.sqrt(max(p_hat, 1e-12) * (1 - p_hat) / n) / width
            dens = float(np.interp(u, grid.x, grid.values))
            assert abs(dens - dens_hat) <= 3 * se + 2e-3

    def test_one_density_call_per_component(self, monkeypatch):
        calls = []

        def counted(u, comp):
            calls.append(np.shape(u))
            return nln_density(u, comp)

        monkeypatch.setattr(approx, "nln_density", counted)
        comps = [NLNComponent(3, 0.0, 0.25), NLNComponent(3, 0.2, 0.5),
                 NLNComponent(3, 0.0, 0.0)]
        nln_sum_density(comps, n_points=1024)
        assert calls == [(513,)] * 3

    @pytest.mark.parametrize("comps, span", [
        ([NLNComponent(1, 0.0, 20.0)], DEFAULT_GRID_SPAN),  # variance e^800
        ([NLNComponent(1, 1.3, 18.8)] * 2, DEFAULT_GRID_SPAN),  # 2 e^709.48
        ([NLNComponent(1, 0.0, 18.8)], 1e200),  # sd e^353.4 times the span
    ], ids=["variance", "combined-variance", "span"])
    def test_out_of_float_range_raises(self, comps, span):
        with pytest.raises(DensityOverflow):
            nln_sum_density(comps, n_points=16, span_sigmas=span)

    def test_too_coarse_grid_rejected(self):
        comp = NLNComponent(1, 0.0, 0.0)
        with pytest.raises(GridTooCoarse):
            nln_sum_density([comp, comp], n_points=16, span_sigmas=2.0)

    def test_needs_components(self):
        with pytest.raises(DomainError):
            nln_sum_density([])

    def test_csv_export(self, tmp_path):
        grid = nln_sum_density([NLNComponent(1, 0.0, 0.0)], n_points=256)
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (256, 2)
        assert np.array_equal(data[:, 0], grid.x)


class TestMomentMatch:
    def test_single_node(self):
        approx = moment_match(np.array([1.0, 0.0]), 1)
        assert approx.nodes[0] == 0.0 and approx.weights[0] == 1.0

    def test_two_point_standard_normal(self):
        approx = moment_match(STD_NORMAL_MOMENTS[:4], 2)
        assert np.allclose(approx.nodes, GAUSS_HERMITE_2_NODES, atol=1e-12)
        assert np.allclose(approx.weights, GAUSS_HERMITE_2_WEIGHTS, atol=1e-12)

    def test_three_point_standard_normal(self):
        approx = moment_match(STD_NORMAL_MOMENTS, 3)
        assert np.allclose(approx.nodes, GAUSS_HERMITE_3_NODES, atol=1e-8)
        assert np.allclose(approx.weights, GAUSS_HERMITE_3_WEIGHTS, atol=1e-8)

    def test_density_target(self):
        approx = moment_match((lambda x: float(normal_pdf(x)), (-12.0, 12.0)), 3)
        assert np.allclose(approx.nodes, GAUSS_HERMITE_3_NODES, atol=1e-7)

    def test_all_matched_moments_reproduced(self):
        rng = np.random.default_rng(3)
        sample = rng.gamma(2.0, 1.5, size=50_000)
        n = 4
        moms = np.array([float(np.mean(sample ** j)) for j in range(2 * n)])
        approx = moment_match(moms, n)
        for j in range(2 * n):
            assert approx.moment(j) == pytest.approx(
                moms[j], rel=1e-8, abs=1e-10
            )

    def test_next_moment_not_matched(self):
        approx = moment_match(STD_NORMAL_MOMENTS, 3)
        assert approx.moment(6) == pytest.approx(9.0, abs=1e-8)
        assert abs(approx.moment(6) - 15.0) > 1.0

    def test_invalid_moment_sequence_rejected(self):
        # m_2 < m_1^2 is impossible for any distribution
        with pytest.raises(MomentMatrixNotPD):
            moment_match(np.array([1.0, 1.0, 0.5, 0.0, 1.0, 0.0]), 3)
        # also at price scale, where the higher moments reach 1e14
        moms = np.array([float(np.mean(PRICES ** j)) for j in range(8)])
        moms[2] = 0.999 * moms[1] ** 2
        with pytest.raises(MomentMatrixNotPD, match="order 1"):
            moment_match(moms, 4)

    @pytest.mark.parametrize("n", [4, 5])
    def test_raw_price_levels(self, n):
        moms = np.array([float(np.mean(PRICES ** j)) for j in range(2 * n)])
        approx = moment_match(moms, n)
        for j in range(2 * n):
            assert approx.moment(j) == pytest.approx(moms[j], rel=1e-8)
        assert 80.0 < approx.nodes[0] < approx.nodes[-1] < 115.0

    def test_unmatched_nodes_raise(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(jacobi):
            nodes, vecs = eigh(jacobi)
            return nodes + 1e-3, vecs

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NonConvergence, match="1e-8"):
            moment_match(STD_NORMAL_MOMENTS, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matrix_rows_equal_single_calls(self, n):
        moms = moment_rows(n)
        fits = moment_match(moms, n)
        assert isinstance(fits, tuple) and len(fits) == len(moms)
        for row, fit in zip(moms, fits):
            alone = moment_match(row, n)
            assert np.array_equal(fit.nodes, alone.nodes)
            assert np.array_equal(fit.weights, alone.weights)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_jacobi_equals_scalar_cholesky(self, n):
        # the one-sequence loop the stacked factorisation replaced, kept as the reference
        moms = moment_rows(n)
        for moms_row, jacobi in zip(moms, approx._jacobi_from_moments(moms, n)):
            chol = np.zeros((n + 1, n + 1))
            for j in range(n + 1):
                for i in range(min(j + 1, n)):
                    s = moms_row[i + j] - chol[:i, i] @ chol[:i, j]
                    chol[i, j] = math.sqrt(s) if i == j else s / chol[i, i]
            ratio = [chol[j, j + 1] / chol[j, j] for j in range(n)]
            off = [chol[j, j] / chol[j - 1, j - 1] for j in range(1, n)]
            assert np.array_equal(np.diag(jacobi), [ratio[0]] + [
                ratio[j] - ratio[j - 1] for j in range(1, n)])
            assert np.array_equal(np.diag(jacobi, -1), off)
            assert np.array_equal(np.diag(jacobi, 1), off)

    def test_refused_row_is_named(self):
        moms = np.array([[float(np.mean(PRICES ** j)) for j in range(8)]] * 3)
        moms[1, 2] = 0.999 * moms[1, 1] ** 2
        with pytest.raises(MomentMatrixNotPD, match="row 1: .* order 1"):
            moment_match(moms, 4)
        moms[1] = moms[0]
        moms[2, :6] = [1.0, 1.0, 0.5, 0.0, 1.0, 0.0]
        with pytest.raises(MomentMatrixNotPD, match="row 2: .* order 1"):
            moment_match(moms[:, :6], 3)

    @pytest.mark.parametrize("column", [
        # score-sized but not centred: a centred column's m_1 is rounding noise
        0.03 * np.random.default_rng(11).standard_normal(250),
        PRICES,
    ], ids=["score", "price"])
    def test_sample_moments_by_running_products(self, column):
        # a fit's raw moments x^p = x^(p-1) x, against a 60-digit mean of x**p
        got = approx._sample_moments(column[:, None], 8)[0]
        with mpmath.workdps(60):
            xs = [mpmath.mpf(float(x)) for x in column]
            want = [float(mpmath.fsum(x ** p for x in xs) / len(xs)) for p in range(8)]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sample_moments_overflow_refused(self):
        column = np.random.default_rng(0).standard_normal(30) * 1e80
        with pytest.raises(DegenerateData, match="raw moments overflow"):
            approx._sample_moments(column[:, None], 6)

    def test_leading_moment_must_be_one(self):
        with pytest.raises(DomainError):
            moment_match(np.array([2.0, 0.0, 1.0, 0.0]), 2)

    def test_feeds_discrete_coefficient(self):
        a = moment_match(STD_NORMAL_MOMENTS, 3)
        shifted = np.array([1.0, 0.5, 1.25, 1.625, 4.5625, 8.78125])  # N(0.5, 1)
        b = moment_match(shifted, 3)
        rho = bc_coefficient_discrete(a.as_discrete_dist(), b.as_discrete_dist())
        assert 0.0 <= rho.coefficient <= 1.0


class TestDiscreteApprox:
    def test_category_labels_read_back_as_the_nodes(self):
        match = moment_match(STD_NORMAL_MOMENTS, 3)
        labels = json.loads(to_json(match.as_discrete_dist()))["labels"]
        assert [float(label) for label in labels] == match.nodes.tolist()

    def test_invariants(self):
        with pytest.raises(InvalidDistribution):
            DiscreteApprox(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(InvalidDistribution):
            DiscreteApprox(np.array([0.0, 1.0]), np.array([0.7, 0.7]))
        with pytest.raises(InvalidDistribution):
            DiscreteApprox(np.array([0.0, 1.0]), np.array([-0.1, 1.1]))


#: (call, error, message) for each input refused before any work is done
REFUSED = [
    (lambda: approx.GridDensity([0.0, 1.0, 2.0], [0.5, 0.5]), InvalidDistribution,
     "x and values must be matching 1-D arrays"),
    (lambda: approx.GridDensity([0.0, 1.0, 3.0], [0.25, 0.5, 0.25]), InvalidDistribution,
     "grid must be equally spaced"),
    (lambda: approx.GridDensity([0.0, 1.0, 2.0], [0.5, -0.1, 0.5]), InvalidDistribution,
     "density values must be >= 0"),
    (lambda: nln_sum_density([NLNComponent(1, 0.0, 0.3)], n_points=15), DomainError,
     "n_points must be >= 16"),
    (lambda: DiscreteApprox(np.array([0.0, 1.0]), np.array([1.0])), InvalidDistribution,
     "nodes and weights must be matching 1-D arrays"),
    (lambda: moment_match(STD_NORMAL_MOMENTS, 0), DomainError, "n_nodes must be >= 1"),
    (lambda: moment_match(STD_NORMAL_MOMENTS[:4], 3), DomainError, "need 6 moments m_0..m_5"),
    (lambda: moment_match(np.array([1.0, 0.0, math.inf, 0.0]), 2), DomainError,
     "moments must be finite"),
]


@pytest.mark.parametrize("call, error, message", REFUSED,
                         ids=[f"{e.__name__}-{i}" for i, (_, e, _) in enumerate(REFUSED)])
def test_malformed_input_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
