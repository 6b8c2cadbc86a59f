"""Acceptance criteria: one test per criterion, stated tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion (including measured runtime against each budget).
"""

import json
import math
import time

import numpy as np
import pytest

import distsim as ds
from distsim.cli import main as cli_main

from oracles import (
    GAUSS_HERMITE_3_NODES,
    GAUSS_HERMITE_3_WEIGHTS,
    bc_coefficient_mc_mvn,
    bc_distance_grid_tmn,
    bc_distance_quad_uni,
    normal_pdf,
    random_discrete,
    trunc_normal_pdf,
)

IDENTITY = lambda u: u  # noqa: E731
ONES = lambda t: np.ones_like(np.asarray(t, dtype=float))  # noqa: E731


def _finish(num, label, ok, started, budget, detail=""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[acceptance {num:02d}] {status} {label} ({elapsed:.1f}s / {budget:.0f}s budget)"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, f"criterion {num}: {label} {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def random_pd(rng, k, ridge=0.4):
    a = rng.standard_normal((k, k))
    return a @ a.T + ridge * np.eye(k)


def test_criterion_01_univariate_closed_form_vs_quadrature():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        mu = rng.uniform(-2, 2, 2)
        var = rng.uniform(0.3, 3.0, 2)
        closed = ds.bc_normal_uni(ds.GaussianUni(mu[0], var[0]),
                                  ds.GaussianUni(mu[1], var[1])).distance
        rho = ds.bc_coefficient_continuous(
            lambda x: float(normal_pdf(x, mu[0], var[0])),
            lambda x: float(normal_pdf(x, mu[1], var[1])),
            (-math.inf, math.inf),
        ).coefficient
        worst = max(worst, abs(closed - (-math.log(rho))))
    _finish(1, "univariate closed form vs quadrature oracle", worst < 1e-7,
            started, 5.0, f"worst gap {worst:.2e}")


def test_criterion_02_mvn_closed_form_vs_mc():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    fails = 0
    for trial in range(20):
        k = 2 if trial % 2 == 0 else 3
        p = ds.GaussianMulti(rng.uniform(-1, 1, k), random_pd(rng, k))
        q = ds.GaussianMulti(rng.uniform(-1, 1, k), random_pd(rng, k))
        closed_rho = math.exp(-ds.bc_mvn(p, q).distance)
        est, se = bc_coefficient_mc_mvn(p, q, n=200_000, seed=trial)
        if abs(closed_rho - est) > 3 * se:
            fails += 1
    _finish(2, "multivariate closed form vs Monte Carlo coefficient",
            fails == 0, started, 60.0, f"{fails} of 20 outside 3 sigma")


def test_criterion_03_truncated_limit():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_uni = 0.0
    for _ in range(10):
        mu = rng.uniform(-1, 1, 2)
        var = rng.uniform(0.4, 2.0, 2)
        sd = np.sqrt(var)
        base = ds.bc_normal_uni(ds.GaussianUni(mu[0], var[0]),
                                ds.GaussianUni(mu[1], var[1])).distance
        trunc = ds.bc_truncated_uni(
            ds.TruncGaussianUni(mu[0], var[0], mu[0] - 10 * sd[0], mu[0] + 10 * sd[0]),
            ds.TruncGaussianUni(mu[1], var[1], mu[1] - 10 * sd[1], mu[1] + 10 * sd[1]),
        ).distance
        worst_uni = max(worst_uni, abs(trunc - base))
    worst_mvn = 0.0
    cfg = ds.QuadConfig(seed=103)
    for _ in range(4):
        cov_p, cov_q = random_pd(rng, 2), random_pd(rng, 2)
        mu_p, mu_q = rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 2)
        base = ds.bc_mvn(ds.GaussianMulti(mu_p, cov_p),
                         ds.GaussianMulti(mu_q, cov_q)).distance
        sd_p, sd_q = np.sqrt(np.diag(cov_p)), np.sqrt(np.diag(cov_q))
        trunc = ds.bc_truncated_mvn(
            ds.TruncGaussianMulti(mu_p, cov_p, mu_p - 10 * sd_p, mu_p + 10 * sd_p),
            ds.TruncGaussianMulti(mu_q, cov_q, mu_q - 10 * sd_q, mu_q + 10 * sd_q),
            cfg,
        ).distance
        worst_mvn = max(worst_mvn, abs(trunc - base))
    ok = worst_uni < 1e-6 and worst_mvn < 1e-4
    _finish(3, "ten-sigma truncation reaches the untruncated distance", ok,
            started, 30.0, f"uni {worst_uni:.2e}, mvn {worst_mvn:.2e}")


def test_criterion_04_truncated_forms_vs_defining_integrals():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_uni = 0.0
    for _ in range(50):
        mu = rng.uniform(-1, 1, 2)
        var = rng.uniform(0.3, 2.0, 2)
        a, c = rng.uniform(-3, -0.2, 2)
        b, d = rng.uniform(0.2, 3, 2)
        closed = ds.bc_truncated_uni(
            ds.TruncGaussianUni(mu[0], var[0], a, b),
            ds.TruncGaussianUni(mu[1], var[1], c, d),
        ).distance
        oracle = bc_distance_quad_uni(
            lambda x: trunc_normal_pdf(x, mu[0], var[0], a, b),
            lambda x: trunc_normal_pdf(x, mu[1], var[1], c, d),
            max(a, c), min(b, d),
        )
        worst_uni = max(worst_uni, abs(closed - oracle))
    worst_mvn = 0.0
    cfg = ds.QuadConfig(seed=104)
    for _ in range(10):
        p = ds.TruncGaussianMulti(rng.uniform(-0.5, 0.5, 2), random_pd(rng, 2),
                                  [0.0, 0.0], [1.0, 1.0])
        q = ds.TruncGaussianMulti(rng.uniform(-0.5, 0.5, 2), random_pd(rng, 2),
                                  [0.0, 0.0], [1.0, 1.0])
        closed = ds.bc_truncated_mvn(p, q, cfg).distance
        worst_mvn = max(worst_mvn, abs(closed - bc_distance_grid_tmn(p, q, n=400)))
    ok = worst_uni < 1e-8 and worst_mvn < 1e-3
    _finish(4, "truncated closed forms vs defining integrals", ok,
            started, 90.0, f"uni {worst_uni:.2e}, mvn {worst_mvn:.2e}")


def test_criterion_05_hellinger_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        p = ds.DiscreteDist(random_discrete(rng, 6))
        q = ds.DiscreteDist(random_discrete(rng, 6))
        h = ds.hellinger_discrete(p, q)
        rho = ds.bc_coefficient_discrete(p, q).coefficient
        worst = max(worst, abs(h - (2.0 - 2.0 * rho)))
    _finish(5, "Hellinger equals 2 - 2 rho", worst < 1e-12, started, 1.0,
            f"worst gap {worst:.2e}")


def test_criterion_06_metric_axioms():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    violations = 0
    for _ in range(1000):
        p = ds.DiscreteDist(random_discrete(rng, 5))
        q = ds.DiscreteDist(random_discrete(rng, 5))
        r = ds.DiscreteDist(random_discrete(rng, 5))

        def dist(x, y):
            return ds.modified_metric(ds.bc_coefficient_discrete(x, y).coefficient)

        if dist(p, r) > dist(p, q) + dist(q, r) + 1e-12:
            violations += 1
        if abs(dist(p, q) - dist(q, p)) > 0 or dist(p, p) > 1e-7:
            violations += 1
    _finish(6, "sqrt(1 - rho) satisfies the metric axioms", violations == 0,
            started, 2.0, f"{violations} violations")


def test_criterion_07_jl_bound_and_distortion():
    started = time.perf_counter()
    exact = ds.jl_min_dimension(566, 0.5)
    rng = np.random.default_rng(107)
    data = rng.standard_normal((100, 1000))
    k = ds.jl_min_dimension(100, 0.3)
    good = 0
    for seed in range(100):
        projected = ds.jl_project(data, k, seed=seed)
        rep = ds.jl_distortion_report(data, projected, 0.3)
        good += rep.fraction_within >= 0.99
    ok = exact == 305 and good >= 95
    _finish(7, "projection bound and high-probability distortion", ok,
            started, 60.0, f"min-dim {exact}, {good}/100 seeds good (k={k})")


def test_criterion_08_moment_matching():
    started = time.perf_counter()
    moms = np.array([1.0, 0.0, 1.0, 0.0, 3.0, 0.0])
    approx = ds.moment_match(moms, 3)
    nodes_ok = np.allclose(approx.nodes, GAUSS_HERMITE_3_NODES, atol=1e-8)
    weights_ok = np.allclose(approx.weights, GAUSS_HERMITE_3_WEIGHTS, atol=1e-8)
    rel = max(
        abs(approx.moment(j) - moms[j]) / max(1.0, abs(moms[j]))
        for j in range(6)
    )
    ok = nodes_ok and weights_ok and rel < 1e-8
    _finish(8, "three-point rule reproduces the Gauss-Hermite oracle", ok,
            started, 1.0, f"worst relative moment gap {rel:.2e}")


def test_criterion_09_mixture_density():
    started = time.perf_counter()
    worst_mass = 0.0
    for sigma in (0.0, 0.25, 1.0, 2.0):
        for k in (1, 4, 16):
            comp = ds.NLNComponent(k, 0.0, sigma)
            mass = ds.integrate_1d(lambda u: ds.nln_density(u, comp),
                                   -math.inf, math.inf).value
            worst_mass = max(worst_mass, abs(mass - 1.0))
    sup_gap = 0.0
    for k in (1, 4):
        comp = ds.NLNComponent(k, 0.0, 1e-3)
        xs = np.linspace(-5 / math.sqrt(k), 5 / math.sqrt(k), 101)
        sup_gap = max(sup_gap, max(
            abs(ds.nln_density(float(x), comp) - float(normal_pdf(x, 0.0, 1.0 / k)))
            for x in xs
        ))
    base = ds.NLNComponent(1, 0.0, 0.0)
    grid = ds.nln_sum_density([base, base])
    conv_gap = float(np.max(np.abs(grid.values - normal_pdf(grid.x, 0.0, 2.0))))
    ok = worst_mass < 1e-6 and sup_gap < 1e-3 and conv_gap < 1e-4
    _finish(9, "mixture density normalization, degeneration, convolution", ok,
            started, 60.0,
            f"mass {worst_mass:.1e}, sup {sup_gap:.1e}, conv {conv_gap:.1e}")


def test_criterion_10_stein_and_bridge_batteries():
    started = time.perf_counter()
    rng = np.random.default_rng(110)
    cs = [
        (IDENTITY, ONES),
        (lambda t: t * t, lambda t: 2.0 * t),
        (lambda t: t ** 3 - t, lambda t: 3.0 * t * t - 1.0),
    ]
    stein_ok = True
    classical_ok = True
    for i in range(20):
        corr = float(rng.uniform(-0.85, 0.85))
        spec = ds.JointDensitySpec.bivariate_normal(corr=corr)
        if i == 0:
            corr = 0.6
            spec = ds.JointDensitySpec.bivariate_normal(corr=corr)
            rep = ds.verify_stein(spec, IDENTITY, ONES, IDENTITY)
            classical_ok = (abs(rep.lhs - corr) < 1e-3 and abs(rep.rhs - corr) < 1e-3)
        else:
            c, cp = cs[int(rng.integers(len(cs)))]
            rep = ds.verify_stein(spec, c, cp, IDENTITY)
        if rep.residual > max(1e-3, 3 * rep.combined_error):
            stein_ok = False
    bridge_ok = True
    equal_marginals_ok = True
    for i in range(8):
        corr = float(rng.uniform(-0.8, 0.8))
        shift = 0.0 if i < 4 else float(rng.uniform(-1.0, 1.0))
        spec = ds.JointDensitySpec.bivariate_normal(mu_y=shift, corr=corr)
        rep1, rep2 = ds.verify_distance_covariance(spec)
        if (rep1.residual > max(1e-3, 3 * rep1.combined_error)
                or rep2.residual > max(1e-3, 3 * rep2.combined_error)):
            bridge_ok = False
        if shift == 0.0 and (abs(rep1.lhs - corr) > 1e-3
                             or abs(rep1.rhs - corr) > 1e-3):
            equal_marginals_ok = False
    ok = stein_ok and classical_ok and bridge_ok and equal_marginals_ok
    _finish(10, "covariance identity and bridge batteries", ok, started, 120.0)


def test_criterion_11_pricing_routes():
    started = time.perf_counter()
    rng = np.random.default_rng(111)
    routes_ok = True
    for _ in range(20):
        corr = float(rng.uniform(-0.9, 0.9))
        a0, a1, a2 = rng.uniform(-1, 1, 3)
        spec = ds.JointDensitySpec.bivariate_normal(corr=corr)

        def c(t, a0=a0, a1=a1, a2=a2):
            t = np.asarray(t, dtype=float)
            return a0 + a1 * t + a2 * t * t

        def cp(t, a1=a1, a2=a2):
            t = np.asarray(t, dtype=float)
            return a1 + 2.0 * a2 * t

        rep = ds.price_asset(spec, c, cp)
        if rep.max_residual > 3 * max(rep.combined_error, 1e-12) + 1e-9:
            routes_ok = False
    ind = ds.JointDensitySpec.bivariate_normal(mu_y=2.0, corr=0.0)
    rep = ds.price_asset(ind, lambda t: 1.0 + 0.5 * np.asarray(t, dtype=float) ** 2,
                         IDENTITY)
    independent_ok = all(abs(r - 3.0) < 1e-6 for r in rep.routes)
    ok = routes_ok and independent_ok
    _finish(11, "three pricing routes agree", ok, started, 60.0)


def test_criterion_12_pipeline_discrimination():
    started = time.perf_counter()

    def one_run(seed):
        rng = np.random.default_rng(seed)
        cov = 0.5 * np.eye(20) + 0.5
        groups = [
            ds.GroupDataset("A", ds.SampleMatrix(
                rng.multivariate_normal(np.zeros(20), cov, size=300))),
            ds.GroupDataset("B", ds.SampleMatrix(
                rng.multivariate_normal(np.zeros(20), cov, size=300))),
            ds.GroupDataset("C", ds.SampleMatrix(
                rng.multivariate_normal(np.zeros(20), 2.0 * cov, size=300))),
        ]
        cfg = ds.RunConfig(method="jl", k=10, fit="mvn", iterations=5, seed=seed)
        res = ds.compare_groups(groups, cfg)
        same = res.pair_summary["A->B"]["mean"]
        return (same < res.pair_summary["A->C"]["mean"]
                and same < res.pair_summary["B->C"]["mean"])

    wins = sum(one_run(seed) for seed in range(40))
    _finish(12, "same-law pair ranked closest", wins >= 38, started, 120.0,
            f"{wins}/40 runs")


def test_criterion_13_determinism(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(113)
    src = tmp_path / "src.csv"
    ds.SampleMatrix(rng.standard_normal((40, 30))).to_csv(src)
    proj_bytes = []
    for tag in ("p1", "p2"):
        out = tmp_path / f"{tag}.csv"
        assert cli_main(["jl", "project", "--input", str(src), "--k", "6",
                         "--seed", "42", "--output", str(out)]) == 0
        proj_bytes.append(out.read_bytes())

    cov = 0.5 * np.eye(5) + 0.5
    csvs = []
    for name in ("g1", "g2"):
        path = tmp_path / f"{name}.csv"
        ds.SampleMatrix(rng.multivariate_normal(np.zeros(5), cov, size=60)).to_csv(path)
        csvs.append(str(path))
    summaries = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert cli_main(["compare", *csvs, "--method", "jl", "--k", "3",
                         "--fit", "mvn", "--iterations", "3", "--seed", "7",
                         "--out", str(out)]) == 0
        summaries.append((out / "summary.json").read_bytes()
                         + (out / "matrix_iter0.csv").read_bytes()
                         + (out / "matrix_iter2.csv").read_bytes())
    verif = []
    for tag in ("v1", "v2"):
        out = tmp_path / f"{tag}.json"
        assert cli_main(["verify", "bridge", "--seed", "11",
                         "--output", str(out)]) == 0
        verif.append(out.read_bytes())
    ok = (proj_bytes[0] == proj_bytes[1] and summaries[0] == summaries[1]
          and verif[0] == verif[1])
    _finish(13, "seeded reruns are byte-identical", ok, started, 60.0)
