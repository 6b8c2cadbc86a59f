"""Smoke test of the benchmark at tiny sizes, in a few seconds.

Covers every workload untraced and traced, the oracle and determinism
checks, the per-layer call map (which layers each workload uses and which
it bypasses) and the command-line contract. Run from the repository root::

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

CALLS = ("pipeline.load_group", "pipeline.estimate_mvn",
         "pipeline.estimate_truncated_uni", "reduce.pca_reduce", "reduce.jl_project",
         "gaussian.bc_mvn", "gaussian.bc_truncated_mvn", "quadrature.mvn_rect_prob",
         "quadrature.integrate_1d", "approx.moment_match", "approx.nln_density")

#: layers whose ``calls`` must be nonzero on a workload; every other layer in
#: CALLS is bypassed there and must read 0.
USED = {
    "pca-cli-density": {"pipeline.load_group", "reduce.pca_reduce", "reduce.jl_project",
                        "approx.moment_match", "quadrature.integrate_1d",
                        "approx.nln_density"},
    "jl-mvn-truncated": {"pipeline.estimate_mvn", "pipeline.estimate_truncated_uni",
                         "reduce.jl_project", "gaussian.bc_mvn",
                         "gaussian.bc_truncated_mvn", "quadrature.mvn_rect_prob"},
}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_is_correct(workload, tmp_path):
    res = run.work(workload, 1, 0.05, 0, "tiny", tmp_path)
    assert res["failed"] == 0, res["problems"]
    assert res["completed"] == res["attempted"] >= 1
    assert res["layer"] is None
    assert all(len(v) == res["completed"] for v in res["part_s"].values())
    if workload == "jl-mvn-truncated":
        assert res["probe"]["part"] == "jl-truncated"
        assert "failed" in res["probe"]   # recorded as it happened
    else:
        assert res["probe"] is None


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer(workload, tmp_path):
    from tracing import LAYER_METRICS

    res = run.work(workload, 2, 0.05, 1, "tiny", tmp_path)
    assert res["failed"] == 0, res["problems"]
    layer = res["layer"]
    assert list(layer) == list(LAYER_METRICS)
    for name in CALLS:
        calls = layer[f"{name}.calls"]["value"]
        assert (calls > 0) == (name in USED[workload]), name
    assert layer["trace.overhead"]["value"] > 0
    checked = res["oracle_checked"]
    if workload == "pca-cli-density":
        assert checked["discrete_distance"] > 0
    else:
        assert checked["bc_mvn"] > 0 and checked["box_probability"] > 0
        assert layer["quadrature.mvn_rect_prob.repeat_share"]["value"] > 0
        assert layer["quadrature.mvn_rect_prob.mc_halfwidth"]["value"] > 0


def test_metric_lists_match_benchmark_json():
    from tracing import LAYER_METRICS

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.tail_percentile([float(i) for i in range(1, 100)]) == (100.0, 99.0)
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail_percentile([float(i) for i in range(1, 201)]) == (95.0, 190.0)


def _run(cwd, *extra):
    cmd = [sys.executable, "bench/run.py", "--workload", "jl-mvn-truncated", "--seed", "3",
           "--seconds", "0.2", "--trace", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_command_prints_result_line_last():
    proc = _run(BENCH.parent, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    report = json.loads(report_line)["report"]
    assert len(report["setup_s"]) == run.SETUP_REPS
    assert len(set(report["warmup_digests"])) == 1


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
