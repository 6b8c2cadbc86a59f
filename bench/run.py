#!/usr/bin/env python3
"""distsim benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``pca-cli-density`` (parts ``pca-cli``, ``density-verify``) and
``jl-mvn-truncated`` (parts ``jl-many-pairs``, ``jl-truncated``); see
``bench/README.md``. The benchmark is a closed loop: one caller issues one
operation at a time for ``--seconds`` seconds; one op runs both parts.

This process imports nothing heavy. It starts the workload in fresh Python
processes with the BLAS/OpenMP thread variables pinned to 1 and
``DISTSIM_THREADS=1`` (the ``jl-truncated`` part runs at 2), and reads the
library from ``src/`` of the checkout, never from an installed copy; it
exits with code 2, printing no result, when ``src/distsim`` is missing.
Set-up (process start, import, inputs, one warm-up op) is repeated in
``SETUP_REPS`` processes; the last one goes on to the timed loop.

``--trace 0`` times every op untraced. ``--trace 1`` alternates untraced
and traced ops (wrappers from ``bench/tracing.py``), reports per-layer
metrics per traced op and ``trace.overhead`` (traced over untraced median),
checks a seeded sample of captured values against oracles
(``bench/oracles.py``), runs the checks that need extra ops, and writes the
spans to ``.bench_work/traces/``.

Output: the last stdout line is one JSON object::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}

with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``). The line before it is ``{"report": {...}}``: environment,
commit, seed, sizes, per-op and per-part seconds, digests, the tail
percentile with its sample count, ``fail_ratio``, check problems and the
known-defect probe.
An op fails when it raises or its output fails a check; ``correct`` is true
when no op failed. The known-defect probe is not an op of the workload and
is reported only in the report line, where ``fail_ratio`` counts it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOAD_NAMES = ("pca-cli-density", "jl-mvn-truncated")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: set-up repeats per run; setup_s is their median
SETUP_REPS = 2
#: a run ends within DEADLINE_BASE_S + DEADLINE_PER_S * --seconds or fails:
#: the base covers the set-up processes and the post-loop checks, the factor
#: the op that crosses --seconds and, traced, the traced ops' overhead
DEADLINE_BASE_S = 60.0
DEADLINE_PER_S = 2.5
#: candidate tail percentiles, highest first; below 100 samples the maximum
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

E2E_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s",
             "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for the smoke test only")
    ap.add_argument("--role", choices=("main", "setup", "work"), default="main",
                    help=argparse.SUPPRESS)
    ap.add_argument("--dir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ------------------------------------------------------------ statistics

def tail_percentile(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest candidate percentile with at least ten
    samples beyond it by nearest rank, else the maximum (percentile 100).

    The candidates stop at p90 so that the tail never falls back towards the
    median: a run with fewer than 100 samples reports its slowest op."""
    ordered = sorted(times)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 100.0, ordered[-1]


def commit_of(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


# -------------------------------------------------------- workload process

def blas_threads() -> dict:
    """Threads of the OpenBLAS copies bundled with numpy and scipy, as loaded."""
    import ctypes
    import importlib.util

    found = {}
    for package in ("numpy", "scipy"):
        spec = importlib.util.find_spec(package)
        libs = Path(spec.origin).parent.parent / f"{package}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[lib.name] = getter()
                    break
    return found


def environment() -> dict:
    """Versions and thread settings that the timings depend on."""
    import platform

    import numpy
    import scipy

    import distsim
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "distsim": distsim.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (*BLAS_ENV, "DISTSIM_THREADS")},
    }


def _import_library():
    """Put ``src/`` and this directory first on the path; refuse other copies."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import distsim
    if Path(distsim.__file__).resolve().parent != SRC / "distsim":
        raise ImportError(f"distsim imported from {distsim.__file__}, not {SRC}")


def work(workload: str, seed: int, seconds: float, trace: int, size: str,
         work_dir: Path, role: str = "work") -> dict:
    """Set up, warm up and (unless ``role == "setup"``) run the timed loop."""
    _import_library()
    import resource
    from collections import defaultdict

    import numpy as np

    import oracles
    import workloads as W
    from tracing import LAYER_METRICS, Tracer

    sizes = W.FULL if size == "full" else W.TINY
    wl = W.make_workload(workload, seed, sizes, work_dir)
    warm = wl.op(0)
    ready = time.monotonic()
    if role == "setup":
        return {"ready": ready, "warmup_digest": warm.digest}

    tracer = Tracer() if trace else None
    problems: dict = defaultdict(list)
    first_digest = {wl.op_seed(0): warm.digest}
    times, traced_flags, outputs = [], [], {}
    part_s = {part.name: [] for part in wl.parts}
    completed = 0
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(tracer) and index % 2 == 1
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(), tracer.op(index):
                    out = wl.op(index)
            else:
                out = wl.op(index)
        except Exception as e:  # a failed op is counted, never fatal
            out = None
            problems[index].append(f"raised {type(e).__name__}: {e}")
        times.append(time.perf_counter() - t0)
        traced_flags.append(traced)
        if out is not None:
            problems[index].extend(wl.check(out))
            op_seed = wl.op_seed(index)
            expected = first_digest.setdefault(op_seed, out.digest)
            if out.digest != expected:
                problems[index].append(
                    f"digest {out.digest[:12]} differs from an earlier run "
                    f"of op seed {op_seed} ({expected[:12]})")
            completed += 1
            if traced:
                outputs[index] = out
            else:
                for name, secs in out.extra["part_s"].items():
                    part_s[name].append(secs)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (not tracer or index >= 2):
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = index
    layer = checked = None
    if tracer:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0c1e]))
        checked = oracles.run_all(tracer.captures, outputs, rng, problems)
        extra = wl.extra_checks(warm)
        if extra is not None:
            attempted += 1
            problems["extra"].extend(extra)
        untraced = [t for t, f in zip(times, traced_flags) if not f]
        traced_times = [t for t, f in zip(times, traced_flags) if f]
        values = tracer.layer_metrics(sum(traced_flags), untraced, traced_times)
        layer = {name: {"value": values[name], "unit": unit}
                 for name, unit in LAYER_METRICS.items()}
        trace_dir = WORK_ROOT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{workload}-seed{seed}.json")
    probe = wl.probe()
    env = environment()

    failed_ops = sorted(str(k) for k, v in problems.items() if v)
    return {
        "ready": ready,
        "warmup_digest": warm.digest,
        "op_s": times,
        "part_s": part_s,
        "traced": traced_flags,
        "completed": completed,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "digests": {str(k): v for k, v in first_digest.items()},
        "attempted": attempted,
        "failed": len(failed_ops),
        "problems": {k: problems[k] for k in failed_ops},
        "probe": probe,
        "oracle_checked": checked,
        "layer": layer,
        "environment": env,
        "workload": wl.describe(),
    }


# ---------------------------------------------------------- orchestration

def child_env() -> dict:
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = "1"
    env["DISTSIM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, role: str, deadline: float, child_dir: Path) -> tuple[float, dict]:
    """Run one workload process; returns (its set-up seconds, its result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--dir", str(child_dir)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{role} process exceeded the run deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result["ready"] - spawned, result


def summarize(args, setups: list[float], warm_digests: list[str], res: dict) -> tuple:
    """(report, result line) for one run."""
    times = res["op_s"]
    untraced = [t for t, f in zip(times, res["traced"]) if not f]
    q, tail = tail_percentile(untraced)
    probe = res["probe"]
    probe_failed = 1 if probe and probe.get("failed") else 0
    problems = dict(res["problems"])
    if len(set(warm_digests)) != 1:
        problems["setup"] = [f"warm-up digests differ across processes: {warm_digests}"]
    failed = res["failed"] + (1 if "setup" in problems else 0)
    attempted = res["attempted"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_of(ROOT),
        "environment": res["environment"], "sizes": res["workload"],
        "setup_s": setups, "op_s": times, "traced": res["traced"],
        "part_s.p50": {name: statistics.median(v) if v else None
                       for name, v in res["part_s"].items()},
        "op_s.tail_percentile": q, "op_s.samples": len(untraced),
        "digests": res["digests"], "warmup_digests": warm_digests,
        "fail_ratio": (failed + probe_failed) / (attempted + (1 if probe else 0)),
        "problems": problems, "oracle_checked": res["oracle_checked"], "probe": probe,
    }
    if args.trace:
        metrics = res["layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_s.p50": statistics.median(untraced),
            "op_s.tail": tail,
            "ops_per_s": res["completed"] / res["wall_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "main":
        res = work(args.workload, args.seed, args.seconds, args.trace, args.size,
                   Path(args.dir), args.role)
        print(json.dumps(res))
        return 0
    if not (SRC / "distsim" / "__init__.py").is_file():
        print(f"error: no distsim sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_BASE_S + DEADLINE_PER_S * args.seconds
    run_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    setups, warm_digests = [], []
    try:
        for rep in range(SETUP_REPS):
            role = "work" if rep == SETUP_REPS - 1 else "setup"
            child_dir = run_dir / f"p{rep}"
            seconds, res = spawn(args, role, deadline, child_dir)
            setups.append(seconds)
            warm_digests.append(res["warmup_digest"])
            shutil.rmtree(child_dir, ignore_errors=True)
    except (RuntimeError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report, result = summarize(args, setups, warm_digests, res)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
