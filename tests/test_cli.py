"""Subcommand behavior, exit codes, and byte-level determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from distsim import (
    DiscreteDist,
    GaussianMulti,
    GaussianUni,
    SampleMatrix,
    TruncGaussianMulti,
    TruncGaussianUni,
    to_json,
)
from distsim import cli, errors
from distsim.cli import main
from distsim.pipeline import RunConfig, _fit_discrete
from distsim.stein import IdentityReport, PriceReport

from oracles import normal_pdf


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def gauss_files(tmp_path):
    a = write(tmp_path / "a.json", to_json(GaussianUni(0.0, 1.0)))
    b = write(tmp_path / "b.json", to_json(GaussianUni(1.0, 1.0)))
    return a, b


class TestDistance:
    def test_identical_distance_zero(self, gauss_files, capsys):
        a, _ = gauss_files
        assert main(["distance", a, a]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["distance"] == 0.0

    def test_unit_shift(self, gauss_files, capsys):
        a, b = gauss_files
        assert main(["distance", a, b]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["distance"] == pytest.approx(0.125)
        assert out["coefficient"] == pytest.approx(math.exp(-0.125))

    def test_discrete_disjoint_prints_inf(self, tmp_path, capsys):
        a = write(tmp_path / "p.json", to_json(DiscreteDist([1.0, 0.0])))
        b = write(tmp_path / "q.json", to_json(DiscreteDist([0.0, 1.0])))
        assert main(["distance", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["distance"] == "inf"

    def test_mixed_types_rejected(self, tmp_path, gauss_files, capsys):
        a, _ = gauss_files
        d = write(tmp_path / "d.json", to_json(DiscreteDist([0.5, 0.5])))
        assert main(["distance", a, d]) == 1
        assert "error" in capsys.readouterr().err

    def test_truncated_mvn_strict_requires_seed(self, tmp_path, capsys):
        t = TruncGaussianMulti([0.0, 0.0], np.eye(2), [-1, -1], [1, 1])
        a = write(tmp_path / "t.json", to_json(t))
        assert main(["--strict", "distance", a, a]) == 1
        assert main(["--strict", "distance", a, a, "--seed", "3"]) == 0

    def test_missing_file(self, capsys):
        assert main(["distance", "/nonexistent.json", "/nonexistent.json"]) == 1

    def test_identical_discrete_prints_positive_zero(self, tmp_path, capsys):
        p = write(tmp_path / "p.json", to_json(DiscreteDist([0.25, 0.75])))
        assert main(["distance", p, p]) == 0
        out = capsys.readouterr().out
        assert '"distance": 0.0' in out and "-0.0" not in out

    def test_discrete_pairs_by_label(self, tmp_path, capsys):
        a = write(tmp_path / "p.json", to_json(DiscreteDist([0.9, 0.1], ("a", "b"))))
        b = write(tmp_path / "q.json", to_json(DiscreteDist([0.1, 0.9], ("b", "a"))))
        assert main(["distance", a, b]) == 0
        assert json.loads(capsys.readouterr().out) == {"coefficient": 1.0, "distance": 0.0}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("make", [
        lambda mu: GaussianUni(mu, 1.0),
        lambda mu: TruncGaussianUni(mu, 1.0, -math.inf, math.inf),
    ], ids=["GaussianUni", "TruncGaussianUni"])
    def test_far_apart_normals_print_inf(self, tmp_path, capsys, make):
        a = write(tmp_path / "far.json", to_json(make(1e300)))
        b = write(tmp_path / "near.json", to_json(make(0.0)))
        assert main(["distance", a, b]) == 0
        assert json.loads(capsys.readouterr().out) == {"coefficient": 0.0, "distance": "inf"}

    @pytest.mark.parametrize("text", ['{"type": "GaussianUni", "mu": 0}', "[1, 2]"])
    def test_malformed_json_exits_one(self, tmp_path, capsys, text):
        a = write(tmp_path / "bad.json", text)
        assert main(["distance", a, a]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestJl:
    def test_min_dim(self, capsys):
        assert main(["jl", "min-dim", "--n", "566", "--eps", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "305"

    def test_project_and_distortion(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = SampleMatrix(rng.standard_normal((30, 200)))
        src = tmp_path / "src.csv"
        data.to_csv(src)
        out = tmp_path / "proj.csv"
        assert main(["jl", "project", "--input", str(src), "--k", "40",
                     "--seed", "1", "--output", str(out)]) == 0
        assert main(["jl", "distortion", "--original", str(src),
                     "--projected", str(out), "--eps", "0.9",
                     "--output", str(tmp_path / "rep.json")]) == 0
        capsys.readouterr()
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["pairs"] == 30 * 29 // 2
        assert 0.0 <= rep["fraction_within"] <= 1.0

    def test_min_dim_at_a_vanishing_epsilon_exits_one(self, capsys):
        assert main(["jl", "min-dim", "--n", "10", "--eps", "1e-300"]) == 1
        assert capsys.readouterr().err.startswith("error: epsilon 1e-300 is too small")

    def test_project_ragged_csv_exits_one(self, tmp_path, capsys):
        src = write(tmp_path / "bad.csv", "a,b\n1,2\n3\n")
        assert main(["jl", "project", "--input", src, "--k", "1", "--seed", "1",
                     "--output", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {src}: row 3 ")

    def test_project_byte_identical_reruns(self, tmp_path):
        rng = np.random.default_rng(1)
        data = SampleMatrix(rng.standard_normal((10, 50)))
        src = tmp_path / "src.csv"
        data.to_csv(src)
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        for out in (out1, out2):
            assert main(["jl", "project", "--input", str(src), "--k", "8",
                         "--seed", "7", "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[0] == ",".join(f"jl{i}" for i in range(8))


class TestApprox:
    def test_moment_match(self, capsys):
        assert main(["approx", "moment-match", "--moments", "1,0,1,0,3,0",
                     "--nodes", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nodes"] == pytest.approx([-math.sqrt(3), 0.0, math.sqrt(3)],
                                             abs=1e-8)

    @pytest.mark.parametrize("source", [[], ["--moments", "1,0,1,0", "--input", "g.csv"]],
                             ids=["neither", "both"])
    def test_exactly_one_moment_source(self, source, capsys):
        assert main(["approx", "moment-match", "--nodes", "2", *source]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: distsim approx moment-match: ")
        assert "--moments" in err and "--input" in err

    def test_invalid_moments_exit_one(self, capsys):
        assert main(["approx", "moment-match", "--moments", "1,1,0.5,0,1,0",
                     "--nodes", "3"]) == 1

    def test_unknown_column_named(self, tmp_path, capsys):
        src = write(tmp_path / "group.csv", "a,b\n1,2\n3,4\n5,7\n")
        assert main(["approx", "moment-match", "--input", src, "--column", "zz",
                     "--nodes", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'zz'" in err and src in err and "a, b" in err

    def test_raw_price_column(self, tmp_path, capsys):
        prices = np.random.default_rng(0).normal(100.0, 5.0, 500)
        src = tmp_path / "prices.csv"
        SampleMatrix(prices[:, None], ("close",)).to_csv(src)
        assert main(["approx", "moment-match", "--input", str(src), "--column", "close",
                     "--nodes", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 80.0 < out["nodes"][0] < out["nodes"][-1] < 115.0

    def test_column_matches_discrete_fit_bits(self, tmp_path, capsys):
        # log-return-sized values, where x**p and running products give other moment bits
        data = SampleMatrix(np.random.default_rng(4).normal(0.0, 0.02, (250, 3)),
                            ("a", "b", "c"))
        src = tmp_path / "group.csv"
        data.to_csv(src)
        assert main(["approx", "moment-match", "--input", str(src), "--column", "b",
                     "--nodes", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        cfg = RunConfig(method="pca", fit="discrete", n_nodes=4)
        fit = _fit_discrete("group", SampleMatrix.from_csv(src).values, cfg, [])
        assert out["nodes"] == list(fit[1].nodes)
        assert out["weights"] == list(fit[1].weights)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["compare", "{a}", "{b}", "--method", "jl", "--k", "2", "--fit", "discrete",
         "--seed", "1"],
        ["approx", "moment-match", "--input", "{a}", "--nodes", "3"],
    ], ids=["compare", "moment-match"])
    def test_raw_moment_overflow_exits_one(self, tmp_path, capsys, argv):
        rng = np.random.default_rng(0)
        paths = {}
        for name in "ab":
            paths[name] = tmp_path / f"{name}.csv"
            SampleMatrix(rng.standard_normal((30, 3)) * 1e80).to_csv(paths[name])
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err == "error: raw moments overflow the float range\n"

    def test_nln_density_dump(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["approx", "nln-density", "--k", "1,1", "--mu-y", "0,0",
                     "--sigma-y", "0,0", "--points", "512",
                     "--output", str(out)]) == 0
        grid = np.loadtxt(out, delimiter=",", skiprows=1)
        assert grid.shape == (512, 2)
        # two unit normals convolve to N(0, 2)
        want = np.exp(-grid[:, 0] ** 2 / 4) / math.sqrt(4 * math.pi)
        assert np.max(np.abs(grid[:, 1] - want)) < 1e-4


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nln_density_at_a_vanishing_sigma_is_the_normal(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["approx", "nln-density", "--k", "2", "--mu-y", "0", "--sigma-y", "1e-300",
                     "--output", str(out)]) == 0
        grid = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.allclose(grid[:, 1], normal_pdf(grid[:, 0], 0.0, 0.5), rtol=1e-13, atol=0.0)

    def test_nln_density_out_of_float_range_exits_two(self, tmp_path, capsys):
        assert main(["approx", "nln-density", "--k", "1", "--mu-y", "0", "--sigma-y", "20",
                     "--output", str(tmp_path / "g.csv")]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")

class TestVerify:
    @pytest.mark.parametrize("battery", ["stein", "bridge", "pricing"])
    def test_batteries_pass(self, battery, capsys):
        assert main(["verify", battery, "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_pass"] is True
        assert all(case["pass"] for case in out["cases"])

    def test_strict_requires_seed(self, capsys):
        assert main(["--strict", "verify", "stein"]) == 1

    # passes: residual 0.5 within 3 x 0.2; fails: residual 1.0 above the 1e-3 floor
    @pytest.mark.parametrize("battery, name, passing, failing, count", [
        ("stein", "verify_stein", IdentityReport(1.0, 1.5, 0.5, 0.2),
         IdentityReport(1.0, 2.0, 1.0, 0.0), 8),
        ("bridge", "verify_distance_covariance",
         (IdentityReport(1.0, 1.5, 0.5, 0.2),) * 2,
         (IdentityReport(1.0, 2.0, 1.0, 0.0), IdentityReport(1.0, 1.5, 0.5, 0.2)), 12),
        ("pricing", "price_asset",
         PriceReport((1.0, 1.5, 1.0), 0.5, 0.2, (0.0, 0.0, 0.0, 1.0), 1.0, 1.0),
         PriceReport((1.0, 2.0, 1.0), 1.0, 0.0, (0.0, 0.0, 0.0, 1.0), 1.0, 1.0), 6),
    ], ids=["stein", "bridge", "pricing"])
    def test_failing_case_exits_two(self, monkeypatch, capsys, battery, name, passing,
                                    failing, count):
        reports = iter([failing])
        monkeypatch.setattr(cli, name, lambda *args: next(reports, passing))
        assert main(["verify", battery, "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"numerical failure: {battery} battery has failing cases\n"
        out = json.loads(captured.out)
        assert out["all_pass"] is False
        assert [case["pass"] for case in out["cases"]] == [False] + [True] * (count - 1)
        assert out["cases"][0]["combined_error"] == 0.0


@pytest.mark.parametrize("name", [n for n in errors.__all__
                                  if issubclass(getattr(errors, n), errors.DistsimError)])
def test_error_hierarchy_decides_exit_code(monkeypatch, capsys, name):
    cls = getattr(errors, name)

    def refuse(*args):
        raise cls("refused")

    monkeypatch.setattr(cli, "jl_min_dimension", refuse)
    numerical = issubclass(cls, ArithmeticError)
    assert main(["jl", "min-dim", "--n", "10", "--eps", "0.5"]) == (2 if numerical else 1)
    prefix = "numerical failure" if numerical else "error"
    assert capsys.readouterr().err == f"{prefix}: refused\n"


def test_raw_arithmetic_error_exits_two(monkeypatch, capsys):
    def overflow(*args):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "jl_min_dimension", overflow)
    assert main(["jl", "min-dim", "--n", "10", "--eps", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: math range error\n"


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        (["compare", "g.csv", "--fit", "bogus"], "distsim compare: argument --fit: invalid"),
        (["jl", "min-dim", "--n", "x", "--eps", "0.5"], "argument --n: invalid int value"),
        (["jl", "min-dim", "--eps", "0.5"], "the following arguments are required: --n"),
        (["verify"], "the following arguments are required: battery"),
        (["nosuch"], "argument command: invalid choice: 'nosuch'"),
        (["verify", "stein", "--bogus"], "unrecognized arguments: --bogus"),
    ], ids=["choice", "int", "required-flag", "required-positional", "command", "unknown"])
    def test_usage_error_exits_one(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: distsim")
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestCompare:
    @pytest.fixture
    def group_csvs(self, tmp_path):
        rng = np.random.default_rng(3)
        cov = 0.5 * np.eye(5) + 0.5
        paths = []
        for name, scale in (("aus", 1.0), ("sgp", 1.0), ("hkg", 2.0)):
            data = rng.multivariate_normal(np.zeros(5), scale * cov, size=80)
            path = tmp_path / f"{name}.csv"
            SampleMatrix(data).to_csv(path)
            paths.append(str(path))
        return paths

    def test_compare_writes_outputs(self, group_csvs, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["compare", *group_csvs, "--method", "jl", "--k", "3",
                     "--fit", "mvn", "--iterations", "2", "--seed", "4",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["labels"] == ["aus", "sgp", "hkg"]
        assert len(summary["iterations"]) == 2
        assert (out / "matrix_iter0.csv").exists()
        assert (out / "matrix_iter1.csv").exists()

    def test_compare_byte_identical_reruns(self, group_csvs, tmp_path):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            assert main(["compare", *group_csvs, "--method", "jl", "--k", "3",
                         "--fit", "mvn", "--iterations", "2", "--seed", "4",
                         "--out", str(out)]) == 0
            outs.append(out)
        for name in ("summary.json", "matrix_iter0.csv", "matrix_iter1.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_config_file_with_cli_override(self, group_csvs, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "jl", "k": 2, "fit": "mvn",
                                   "iterations": 1, "seed": 1}))
        assert main(["compare", *group_csvs, "--config", str(cfg),
                     "--iterations", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["iterations"]) == 3
        assert out["config"]["k"] == 2

    @pytest.mark.parametrize("config", [
        [1],
        {"method": "jl", "k": 2, "iterations": "3"},
        {"method": "jl", "k": 2, "fit": "truncated", "bounds": [1]},
    ], ids=["list", "string-iterations", "one-bound"])
    def test_malformed_config_exits_one(self, group_csvs, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["compare", *group_csvs, "--config", str(cfg), "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("bounds", ["1,x", "1,2,3", "nope"])
    def test_bad_bounds_flag_exits_one(self, group_csvs, capsys, bounds):
        assert main(["compare", *group_csvs, "--method", "jl", "--k", "2",
                     "--fit", "truncated", "--bounds", bounds, "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_flag_overrides_config(self, group_csvs, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "jl", "k": 2, "shrinkage": 0.05, "seed": 1}))
        assert main(["compare", *group_csvs, "--config", str(cfg), "--shrinkage", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["shrinkage"] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pca_centring_overflow_exits_one(self, tmp_path, capsys):
        big1 = write(tmp_path / "big1.csv",
                     "a,b,c\n1.7e308,1,2\n-1.7e308,2,1\n1.7e308,3,5\n0,1.5,2.5\n")
        big2 = write(tmp_path / "big2.csv", "a,b,c\n1,2,3\n2,1,5\n4,3,1\n0,2,2\n")
        assert main(["compare", big1, big2, "--method", "pca", "--fit", "mvn",
                     "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_log_returns_overflow_exits_one(self, tmp_path, capsys):
        levels = write(tmp_path / "levels.csv", "a,b\n1e-300,1\n1e300,2\n1e-300,3\n1.0,4\n")
        assert main(["compare", levels, levels, "--names", "x,y", "--method", "jl",
                     "--k", "2", "--log-returns", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "log returns overflow" in err

    def test_pca_path(self, group_csvs, capsys):
        assert main(["compare", *group_csvs, "--method", "pca",
                     "--sig-digits", "2", "--fit", "mvn", "--seed", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        mat = out["iterations"][0]["matrix"]
        assert len(mat) == 3 and len(mat[0]) == 3

    def test_truncated_pca_fits_every_column(self, tmp_path, capsys):
        # on PCA scores the moment solve wanders deep into a tail; every
        # column must still be fitted, none taking the sample-moment
        # fallback. 2,000 samples keep the wide box probabilities quick.
        rng = np.random.default_rng(1)
        paths = []
        for g in range(3):
            path = tmp_path / f"g{g}.csv"
            SampleMatrix(rng.standard_normal((250, 40))).to_csv(path)
            paths.append(str(path))
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["compare", *paths, "--method", "pca", "--fit", "truncated",
                         "--seed", "1", "--mc-samples", "2000", "--out", str(out)])
        assert code == 0
        assert not [w for w in caught if "falling back" in str(w.message)]
        matrix = json.loads((out / "summary.json").read_text())["iterations"][0]["matrix"]
        assert all(isinstance(x, float) and math.isfinite(x) for row in matrix for x in row)

    def test_infinities_written_as_json_strings(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        paths = []
        for name, shift in (("a", 0.0), ("b", 0.0), ("far", 50.0)):
            path = tmp_path / f"{name}.csv"
            SampleMatrix(rng.standard_normal((60, 3)) + shift).to_csv(path)
            paths.append(str(path))

        def run(tag, *flags):
            out = tmp_path / tag
            assert main(["compare", *paths, *flags, "--out", str(out)]) == 0
            text = (out / "summary.json").read_text()
            return text, json.loads(text, parse_constant=lambda c: pytest.fail(c))

        flags = ("--method", "jl", "--k", "2", "--fit", "truncated", "--seed", "1")
        # the far group's observed box is disjoint from the others'
        _, disjoint = run("disjoint", *flags)
        assert disjoint["pair_summary"]["a->far"] == {"mean": "inf", "min": "inf", "max": "inf"}
        text, bounded = run("bounded", *flags, "--bounds=-inf,60")
        assert bounded["config"]["bounds"] == ["-inf", 60.0]
        # the written config is a valid --config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bounded["config"]))
        assert run("again", "--config", str(cfg))[0] == text

    def test_strict_seed_from_config(self, group_csvs, tmp_path, capsys):
        argv = ["--strict", "compare", *group_csvs, "--method", "jl", "--k", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: --seed is mandatory")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        assert main([*argv, "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3

    def test_names_mismatch_rejected(self, group_csvs, capsys):
        assert main(["compare", *group_csvs, "--method", "jl", "--k", "2",
                     "--names", "a,b", "--seed", "0"]) == 1
