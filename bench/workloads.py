"""Seeded inputs, the four workload parts and the two benchmark workloads.

Every input is made here from the run seed; the library only ever sees the
generated arrays, CSV files and CLI arguments. A part builds its inputs once
(``__init__``, part of set-up) and then runs one operation per ``op`` call.
Operations are addressed by index; index ``i`` uses op seed
``op_seeds[i % OP_SEED_CYCLE]``, so an index and the warm-up (index 0) that
share an op seed must give the same digest.

A benchmark workload runs two parts in turn as one op (``WORKLOADS``): each
ROADMAP optimisation has a workload that exercises it and one that bypasses
it, and two workloads leave each run long enough to be steady on a host
whose speed drifts over minutes (see ``bench/README.md``).

Each ``op`` returns an :class:`OpOutput` whose ``digest`` is the SHA-256 of
the distance matrices (and, for ``pca-cli``, of the bytes of
``summary.json`` and the matrix CSV it wrote).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from distsim import approx, cli, pipeline
from distsim.core import SampleMatrix
from distsim.pipeline import GroupDataset, RunConfig

from oracles import normal_mixture_moments

#: number of distinct op seeds an operation index cycles through.
OP_SEED_CYCLE = 4


@dataclass(frozen=True)
class Sizes:
    """Every size a workload depends on; ``TINY`` is for the smoke test."""

    levels: int = 251                  # price levels per market (T); T-1 log returns
    widths: tuple = (20, 30, 40)       # market widths d, cycled
    factors: int = 3
    pca_groups: int = 12
    pca_sig_digits: int = 3
    jl_groups: int = 24
    jl_k: int = 10
    jl_iterations: int = 20
    trunc_groups: int = 5
    trunc_k: int = 6
    trunc_threads: int = 2
    mc_samples: int = 200_000
    probe_sig_digits: int = 2
    nln_components: int = 3
    nln_points: int = 4096
    mm_nodes: int = 4
    batteries: tuple = ("stein", "bridge", "pricing")


FULL = Sizes()
TINY = Sizes(levels=41, widths=(3, 4, 5), pca_groups=3, jl_groups=4, jl_k=2,
             jl_iterations=2, trunc_groups=3, trunc_k=2, mc_samples=1000,
             nln_components=2, nln_points=256, batteries=("stein",))


def make_market(rng: np.random.Generator, d: int, levels: int,
                factors: int) -> np.ndarray:
    """Geometric random walk of ``d`` prices on a factor model plus noise.

    Log returns are ``drift + F B^T + E``: ``factors`` common factors with
    per-market volatilities and loadings, and idiosyncratic noise of 0.5-2%
    a day. Returns ``levels`` strictly positive price rows.
    """
    t = levels - 1
    factor_vol = rng.uniform(0.004, 0.012, size=factors)
    loadings = rng.normal(0.0, 0.6, size=(d, factors))
    loadings[:, 0] += 1.0
    idio = rng.uniform(0.005, 0.02, size=d)
    drift = rng.normal(3e-4, 2e-4, size=d)
    returns = (drift + (rng.standard_normal((t, factors)) * factor_vol) @ loadings.T
               + rng.standard_normal((t, d)) * idio)
    start = rng.uniform(10.0, 200.0, size=d)
    return start * np.exp(np.vstack([np.zeros(d), np.cumsum(returns, axis=0)]))


def make_markets(seed: int, count: int, sizes: Sizes) -> list[GroupDataset]:
    """The first ``count`` markets of the seed's stream (a prefix is stable)."""
    children = np.random.SeedSequence(seed).spawn(count)
    groups = []
    for g, child in enumerate(children):
        d = sizes.widths[g % len(sizes.widths)]
        values = make_market(np.random.default_rng(child), d, sizes.levels,
                             sizes.factors)
        labels = tuple(f"m{g}s{j}" for j in range(d))
        groups.append(GroupDataset(f"m{g:02d}", SampleMatrix(values, labels)))
    return groups


def write_csv(group: GroupDataset, path: Path) -> None:
    """One group as CSV (header = labels), every value exact via ``repr``."""
    with open(path, "w") as fh:
        fh.write(",".join(group.data.labels) + "\n")
        for row in np.asarray(group.data.values):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def matrices_digest(matrices) -> str:
    """SHA-256 of labels and float64 bytes of each distance matrix."""
    h = hashlib.sha256()
    for m in matrices:
        h.update("\x1f".join(m.labels).encode())
        h.update(np.ascontiguousarray(m.values, dtype=np.float64).tobytes())
    return h.hexdigest()


def run_cli(argv: list[str]) -> int:
    """``distsim.cli.main`` with its stdout swallowed (ours carries results)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@contextlib.contextmanager
def distsim_threads(n: int):
    """Temporarily set ``DISTSIM_THREADS`` (read by the pipeline per call)."""
    old = os.environ.get("DISTSIM_THREADS")
    os.environ["DISTSIM_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["DISTSIM_THREADS"]
        else:
            os.environ["DISTSIM_THREADS"] = old


@dataclass
class OpOutput:
    digest: str
    matrices: list = field(default_factory=list)   # numpy arrays, row-major
    extra: dict = field(default_factory=dict)


def write_csvs(groups, directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for grp in groups:
        path = directory / f"{grp.name}.csv"
        write_csv(grp, path)
        paths.append(str(path))
    return paths


class Part:
    """Base class: seeded op seeds, sizes and default (empty) hooks."""

    name = ""
    threads = 1

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        state = np.random.SeedSequence([seed, 0x0b5]).generate_state(OP_SEED_CYCLE)
        self.op_seeds = [int(x) for x in state]

    def op_seed(self, index: int) -> int:
        return self.op_seeds[index % OP_SEED_CYCLE]

    def op(self, index: int) -> OpOutput:
        raise NotImplementedError

    def describe(self) -> dict:
        """Every size this part uses, for the output record."""
        raise NotImplementedError

    def check(self, out: OpOutput) -> list[str]:
        """Structural checks of one op's output; returns failure messages."""
        problems = []
        for m in out.matrices:
            if np.isnan(m).any() or (m < 0).any():
                problems.append("distance matrix has NaN or negative entries")
            if np.abs(np.diag(m)).max() > 1e-9:
                problems.append("distance matrix diagonal is not zero")
        return problems

    def extra_checks(self, reference: OpOutput) -> list[str] | None:
        """Problems found by one extra op, run once in the traced run; ``None``
        when the part has no such check."""
        return None

    def probe(self) -> dict | None:
        """An untimed known-defect probe after the timed loop, if any."""
        return None


class _Markets(Part):
    """Parts on the first ``count(sizes)`` markets of the seed."""

    def __init__(self, seed, sizes, work_dir):
        super().__init__(seed, sizes, work_dir)
        self.groups = make_markets(seed, self.count(sizes), sizes)

    def count(self, sizes: Sizes) -> int:
        raise NotImplementedError

    def config(self, op_seed: int) -> RunConfig:
        raise NotImplementedError

    def describe(self):
        s = self.sizes
        cfg = {k: v for k, v in asdict(self.config(0)).items()
               if k not in ("seed", "out_dir")}
        return {"groups": len(self.groups), "levels": s.levels,
                "widths": list(s.widths), "factors": s.factors, **cfg}

    def op(self, index):
        # looked up through the module so the traced run's wrapper is seen
        result = pipeline.compare_groups(self.groups, self.config(self.op_seed(index)))
        mats = [np.asarray(m.values) for m in result.matrices]
        return OpOutput(matrices_digest(result.matrices), mats)


class PcaCli(_Markets):
    name = "pca-cli"

    def __init__(self, seed, sizes, work_dir):
        super().__init__(seed, sizes, work_dir)
        self.csvs = write_csvs(self.groups, work_dir / "pca_csv")
        self.out_dir = work_dir / "pca_out"

    def count(self, sizes):
        return sizes.pca_groups

    def config(self, op_seed):
        # what the CLI arguments below amount to, for the record
        return RunConfig(method="pca", sig_digits=self.sizes.pca_sig_digits,
                         fit="discrete", log_returns=True, seed=op_seed)

    def op(self, index):
        code = run_cli(["compare", *self.csvs, "--method", "pca",
                        "--sig-digits", str(self.sizes.pca_sig_digits),
                        "--fit", "discrete", "--log-returns",
                        "--seed", str(self.op_seed(index)), "--out", str(self.out_dir)])
        if code != 0:
            raise RuntimeError(f"distsim compare exited with {code}")
        h = hashlib.sha256()
        for fname in ("summary.json", "matrix_iter0.csv"):
            h.update((self.out_dir / fname).read_bytes())
        return OpOutput(h.hexdigest(), [_read_matrix_csv(self.out_dir / "matrix_iter0.csv")])


def _read_matrix_csv(path: Path) -> np.ndarray:
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(x) for x in r.split(",")[1:]] for r in rows])


class JlManyPairs(_Markets):
    name = "jl-many-pairs"

    def count(self, sizes):
        return sizes.jl_groups

    def config(self, op_seed):
        s = self.sizes
        return RunConfig(method="jl", k=s.jl_k, fit="mvn", iterations=s.jl_iterations,
                         log_returns=True, seed=op_seed)


class JlTruncated(_Markets):
    name = "jl-truncated"

    def __init__(self, seed, sizes, work_dir):
        self.threads = sizes.trunc_threads
        super().__init__(seed, sizes, work_dir)

    def count(self, sizes):
        return sizes.trunc_groups

    def config(self, op_seed):
        s = self.sizes
        return RunConfig(method="jl", k=s.trunc_k, fit="truncated", iterations=1,
                         log_returns=True, mc_samples=s.mc_samples, seed=op_seed)

    def check(self, out):
        # finite here: a disjoint pair (inf) would hide the box probabilities
        problems = super().check(out)
        if not all(np.isfinite(m).all() for m in out.matrices):
            problems.append("truncated distance matrix has infinite entries")
        return problems

    def extra_checks(self, reference):
        with distsim_threads(1):
            single = self.op(0)
        if single.digest != reference.digest:
            return [f"DISTSIM_THREADS=1 digest {single.digest[:12]} differs from "
                    f"DISTSIM_THREADS={self.threads} digest {reference.digest[:12]}"]
        return []

    def probe(self):
        """``compare --method pca --fit truncated`` on this workload's groups.

        A known defect (a raw ZeroDivisionError in the truncated-moment
        solve) makes it fail at the seed state; the outcome is recorded
        as it is, never retried or altered.
        """
        paths = write_csvs(self.groups, self.work_dir / "probe_csv")
        argv = ["compare", *paths, "--method", "pca", "--sig-digits",
                str(self.sizes.probe_sig_digits), "--fit", "truncated",
                "--log-returns", "--mc-samples", str(self.sizes.mc_samples),
                "--seed", str(self.op_seed(0)), "--out", str(self.work_dir / "probe_out")]
        record = {"argv": ["distsim"] + [Path(a).name if "/" in a else a for a in argv]}
        try:
            code = run_cli(argv)
        except Exception as e:  # the probe exists to record exactly this
            record.update(failed=True, exception=type(e).__name__, message=str(e)[:200])
        else:
            record.update(failed=code != 0, exit_code=code)
        return record


class DensityVerify(Part):
    name = "density-verify"

    def __init__(self, seed, sizes, work_dir):
        super().__init__(seed, sizes, work_dir)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xd5]))
        self.components = [
            approx.NLNComponent(int(rng.integers(2, 7)),
                                float(rng.uniform(-0.1, 0.1)),
                                float(rng.uniform(0.2, 0.5)))
            for _ in range(sizes.nln_components)
        ]
        # a two-normal mixture whose moments are found by quadrature
        self.mix = (float(rng.uniform(0.3, 0.7)), float(rng.uniform(-1.0, -0.3)),
                    float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.7, 1.2)),
                    float(rng.uniform(0.5, 1.5)))
        self.out_dir = work_dir / "verify_out"
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def describe(self):
        s = self.sizes
        return {"nln_components": [asdict(c) for c in self.components],
                "nln_points": s.nln_points, "mm_nodes": s.mm_nodes,
                "mixture": dict(zip(("w", "mu1", "sd1", "mu2", "sd2"), self.mix)),
                "batteries": list(s.batteries)}

    def density(self, x: float) -> float:
        w, m1, s1, m2, s2 = self.mix
        return (w * math.exp(-0.5 * ((x - m1) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
                + (1 - w) * math.exp(-0.5 * ((x - m2) / s2) ** 2)
                / (s2 * math.sqrt(2 * math.pi)))

    def op(self, index):
        op_seed = self.op_seed(index)
        grid = approx.nln_sum_density(self.components, n_points=self.sizes.nln_points)
        matched = approx.moment_match((self.density, (-12.0, 12.0)), self.sizes.mm_nodes)
        h = hashlib.sha256()
        h.update(grid.values.tobytes())
        h.update(matched.nodes.tobytes() + matched.weights.tobytes())
        reports = {}
        for battery in self.sizes.batteries:
            path = self.out_dir / f"{battery}.json"
            code = run_cli(["verify", battery, "--seed", str(op_seed),
                            "--output", str(path)])
            raw = path.read_bytes()
            h.update(raw)
            reports[battery] = {"exit_code": code,
                                "all_pass": json.loads(raw)["all_pass"]}
        return OpOutput(h.hexdigest(), [], {"grid_mass": grid.mass(), "matched": matched,
                                            "batteries": reports})

    def check(self, out):
        problems = []
        if abs(out.extra["grid_mass"] - 1.0) > 1e-4:
            problems.append(f"NLN grid mass {out.extra['grid_mass']!r} is not 1")
        w, m1, s1, m2, s2 = self.mix
        count = 2 * self.sizes.mm_nodes   # m_0 .. m_{2N-1}
        want = normal_mixture_moments((w, 1 - w), (m1, m2), (s1, s2), count)
        matched = out.extra["matched"]
        got = np.array([matched.moment(j) for j in range(count)])
        if not np.all(np.abs(got - want) <= 1e-6 * np.maximum(np.abs(want), 1.0)):
            problems.append(f"matched moments {got} differ from the mixture's {want}")
        for name, rep in out.extra["batteries"].items():
            if rep["exit_code"] != 0 or not rep["all_pass"]:
                problems.append(f"{name} battery failed: {rep}")
        return problems


class Workload:
    """Parts run in turn, each at its own ``DISTSIM_THREADS``, as one op.

    The op's digest covers every part's digest; its matrices list the parts'
    matrices in part order, so a ``pca-cli`` matrix comes first.
    """

    def __init__(self, name: str, parts: list[Part]):
        self.name = name
        self.parts = parts

    def op_seed(self, index: int) -> int:
        return self.parts[0].op_seed(index)

    def op(self, index: int) -> OpOutput:
        h = hashlib.sha256()
        matrices, outs, part_s = [], {}, {}
        for part in self.parts:
            start = time.perf_counter()
            with distsim_threads(part.threads):
                out = part.op(index)
            part_s[part.name] = time.perf_counter() - start
            outs[part.name] = out
            h.update(out.digest.encode())
            matrices.extend(out.matrices)
        return OpOutput(h.hexdigest(), matrices, {"parts": outs, "part_s": part_s})

    def check(self, out: OpOutput) -> list[str]:
        return [f"{part.name}: {problem}" for part in self.parts
                for problem in part.check(out.extra["parts"][part.name])]

    def extra_checks(self, reference: OpOutput) -> list[str] | None:
        found = [(part.name, part.extra_checks(reference.extra["parts"][part.name]))
                 for part in self.parts]
        if all(problems is None for _, problems in found):
            return None
        return [f"{name}: {p}" for name, problems in found for p in problems or ()]

    def probe(self) -> dict | None:
        for part in self.parts:
            with distsim_threads(part.threads):
                record = part.probe()
            if record is not None:
                return {"part": part.name, **record}
        return None

    def describe(self) -> dict:
        return {part.name: {"threads": part.threads, **part.describe()}
                for part in self.parts}


#: benchmark workload -> the parts one op runs, in order
WORKLOADS = {
    "pca-cli-density": (PcaCli, DensityVerify),
    "jl-mvn-truncated": (JlManyPairs, JlTruncated),
}


def make_workload(name: str, seed: int, sizes: Sizes, work_dir: Path) -> Workload:
    return Workload(name, [cls(seed, sizes, work_dir) for cls in WORKLOADS[name]])
