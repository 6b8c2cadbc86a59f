"""Command line interface.

Subcommands:

* ``distance A.json B.json`` -- divergence between two serialized
  distributions of the same type.
* ``compare`` -- group CSVs through the reduction/fit/compare pipeline,
  emitting per-iteration distance matrices (CSV) and a summary (JSON).
* ``jl min-dim | project | distortion`` -- random-projection utilities.
* ``approx moment-match | nln-density`` -- discrete approximations and
  mixture-density grid dumps.
* ``verify stein | bridge | pricing`` -- run the covariance-identity test
  batteries and emit machine-readable reports.

Exit codes: 0 success, 1 input error (a bad flag, choice or missing argument
too), 2 numerical failure (an error that is an ``ArithmeticError``). All
randomized subcommands take ``--seed`` (mandatory under ``--strict``) and
reruns with identical arguments produce byte-identical outputs. KL
divergence, where printed, is in nats. The ``DISTSIM_THREADS`` environment
variable sets the pipeline's pairwise-comparison thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .approx import (DEFAULT_GRID_POINTS, DEFAULT_GRID_SPAN, NLNComponent, _sample_moments,
                     moment_match, nln_sum_density)
from .core import (
    DiscreteDist,
    GaussianMulti,
    GaussianUni,
    SampleMatrix,
    TruncGaussianMulti,
    TruncGaussianUni,
    from_json,
)
from .divergence import bc_coefficient_discrete
from .errors import DistsimError, DomainError, NonConvergence
from .gaussian import bc_mvn, bc_normal_uni, bc_truncated_mvn, bc_truncated_uni
from .pipeline import _FAMILIES, RunConfig, compare_groups, load_group
from .quadrature import QuadConfig
from .reduce import jl_distortion_report, jl_min_dimension, jl_project
from .stein import (
    JointDensitySpec,
    price_asset,
    verify_distance_covariance,
    verify_stein,
)

def _emit(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _seed(args, seed: int | None) -> int:
    """``seed``, or 0 when it is missing; a missing seed is refused under
    ``--strict``."""
    if seed is None and args.strict:
        raise DomainError("--seed is mandatory in --strict mode for randomized commands")
    return 0 if seed is None else seed


# ----------------------------------------------------------------- distance

#: exact distribution type -> distance(a, b, args) -> DivergenceValue
_DISTANCES = {
    DiscreteDist: lambda a, b, args: bc_coefficient_discrete(a, b),
    GaussianUni: lambda a, b, args: bc_normal_uni(a, b),
    GaussianMulti: lambda a, b, args: bc_mvn(a, b),
    TruncGaussianUni: lambda a, b, args: bc_truncated_uni(a, b),
    TruncGaussianMulti: lambda a, b, args: bc_truncated_mvn(
        a, b, QuadConfig(seed=_seed(args, args.seed), mc_samples=args.mc_samples)),
}


def _cmd_distance(args) -> int:
    a = from_json(Path(args.first).read_text())
    b = from_json(Path(args.second).read_text())
    if type(a) is not type(b):
        raise DomainError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}"
        )
    value = _DISTANCES[type(a)](a, b, args)
    _emit({
        "coefficient": value.coefficient,
        "distance": value.distance if math.isfinite(value.distance) else "inf",
    }, args.output)
    return 0


# ------------------------------------------------------------------ compare

def _cmd_compare(args) -> int:
    merged = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(merged, dict):
        raise DomainError(f"{args.config}: a run config is a JSON object")
    # each flag's dest is the name of the RunConfig field it overrides
    merged.update({f.name: getattr(args, f.name) for f in fields(RunConfig)
                   if getattr(args, f.name, None) is not None})
    if args.bounds not in (None, "observed_range"):
        merged["bounds"] = [float(x) for x in args.bounds.split(",")]
    _seed(args, merged.get("seed"))
    cfg = RunConfig.from_dict(merged)

    names = args.names.split(",") if args.names else [Path(p).stem for p in args.csv]
    if len(names) != len(args.csv):
        raise DomainError("--names count must match the number of CSV files")
    groups = [load_group(path, name) for path, name in zip(args.csv, names)]
    result = compare_groups(groups, cfg)

    text = json.dumps(result.to_dict(), indent=2, allow_nan=False)
    out_dir = args.out or cfg.out_dir
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, mat in enumerate(result.matrices):
            mat.to_csv(out / f"matrix_iter{i}.csv")
        (out / "summary.json").write_text(text + "\n")
        print(f"wrote {len(result.matrices)} matrices and summary.json to {out}")
    else:
        print(text)
    return 0


# ----------------------------------------------------------------------- jl

def _cmd_jl(args) -> int:
    if args.jl_cmd == "min-dim":
        print(jl_min_dimension(args.n, args.eps))
        return 0
    if args.jl_cmd == "project":
        data = SampleMatrix.from_csv(args.input)
        projected = SampleMatrix(jl_project(data, args.k, _seed(args, args.seed)),
                                 tuple(f"jl{i}" for i in range(args.k)))
        projected.to_csv(args.output)
        print(f"projected {data.n_obs}x{data.n_vars} -> {projected.n_obs}x{projected.n_vars}")
        return 0
    original = SampleMatrix.from_csv(args.original)
    projected = SampleMatrix.from_csv(args.projected)
    rep = jl_distortion_report(original, projected, args.eps)
    _emit({
        "pairs": rep.pair_count,
        "min_ratio": rep.min_ratio,
        "max_ratio": rep.max_ratio,
        "mean_ratio": rep.mean_ratio,
        "fraction_within": rep.fraction_within,
    }, args.output)
    return 0


# ------------------------------------------------------------------- approx

def _cmd_approx(args) -> int:
    if args.approx_cmd == "moment-match":
        if args.moments is not None:
            moms = np.array([float(x) for x in args.moments.split(",")])
        else:
            data = SampleMatrix.from_csv(args.input)
            if args.column and args.column not in data.labels:
                raise DomainError(f"no column {args.column!r} in {args.input}; "
                                  f"columns: {', '.join(data.labels)}")
            idx = data.labels.index(args.column) if args.column else 0
            moms = _sample_moments(data.values[:, [idx]], 2 * args.nodes)[0]
        approx = moment_match(moms, args.nodes)
        _emit({"nodes": list(approx.nodes), "weights": list(approx.weights)},
              args.output)
        return 0
    ks = [int(x) for x in args.k.split(",")]
    mus = [float(x) for x in args.mu_y.split(",")]
    sigmas = [float(x) for x in args.sigma_y.split(",")]
    if not len(ks) == len(mus) == len(sigmas):
        raise DomainError("--k, --mu-y and --sigma-y need the same number of entries")
    comps = [NLNComponent(k, m, s) for k, m, s in zip(ks, mus, sigmas)]
    grid = nln_sum_density(comps, n_points=args.points, span_sigmas=args.span)
    grid.to_csv(args.output)
    print(f"wrote {grid.x.size}-point density grid to {args.output}")
    return 0


# ------------------------------------------------------------------- verify

# Each battery draws its cases from the seeded rng and yields, per case, the
# case's fields, its report and the residual that the pass rule judges.

_POLYS = (
    ("t", lambda t: t, lambda t: np.ones_like(np.asarray(t, dtype=float))),
    ("t^2", lambda t: t * t, lambda t: 2.0 * t),
    ("t^3-t", lambda t: t ** 3 - t, lambda t: 3.0 * t * t - 1.0),
)


def _stein_cases(rng):
    for _ in range(8):
        corr = float(rng.uniform(-0.9, 0.9))
        name, c, cp = _POLYS[int(rng.integers(len(_POLYS)))]
        rep = verify_stein(JointDensitySpec.bivariate_normal(corr=corr), c, cp, lambda u: u)
        yield {"corr": corr, "c": name}, rep, rep.residual


def _bridge_cases(rng):
    for _ in range(6):
        corr = float(rng.uniform(-0.8, 0.8))
        shift = float(rng.uniform(-1.0, 1.0))
        spec = JointDensitySpec.bivariate_normal(mu_y=shift, corr=corr)
        for tag, rep in zip(("cov_form", "kernel_form"),
                            verify_distance_covariance(spec)):
            yield {"corr": corr, "mu_y": shift, "equation": tag}, rep, rep.residual


def _pricing_cases(rng):
    for _ in range(6):
        corr = float(rng.uniform(-0.9, 0.9))
        coefs = rng.uniform(-1.0, 1.0, size=3)

        def c(t, a=coefs):
            t = np.asarray(t, dtype=float)
            return a[0] + a[1] * t + a[2] * t * t

        def cp(t, a=coefs):
            t = np.asarray(t, dtype=float)
            return a[1] + 2.0 * a[2] * t

        rep = price_asset(JointDensitySpec.bivariate_normal(corr=corr), c, cp)
        yield {"corr": corr, "coeffs": list(coefs)}, rep, rep.max_residual


_BATTERIES = {"stein": _stein_cases, "bridge": _bridge_cases, "pricing": _pricing_cases}


def _cmd_verify(args) -> int:
    seed = _seed(args, args.seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cases = [{**fields, **rep.to_dict(),
              "pass": residual <= max(1e-3, 3 * rep.combined_error)}
             for fields, rep, residual in _BATTERIES[args.battery](rng)]
    ok = all(c["pass"] for c in cases)
    _emit({"battery": args.battery, "seed": seed, "cases": cases,
           "all_pass": ok}, args.output)
    if not ok:
        raise NonConvergence(f"{args.battery} battery has failing cases")
    return 0


# ------------------------------------------------------------------- parser

_MC_SAMPLES_HELP = ("cap on box-probability samples, split over 12 replicates that each "
                    "round their share up to a power of two (at most 393216 points at "
                    "the default 200000); a box stops earlier once its 99%% half-width "
                    "is within 1e-5 of its value")


class _Parser(argparse.ArgumentParser):
    """Refuses bad usage with :class:`DomainError`, as input errors are refused;
    ``add_subparsers`` makes every subcommand parser of this class too."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="distsim",
        description="Distribution similarity with dimension reduction.",
        epilog="Distances and KL divergences are in nats (natural logarithm); "
               "a zero overlap coefficient is reported as distance 'inf'. "
               "DISTSIM_THREADS sets the pipeline's comparison thread count.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--strict", action="store_true",
                        help="require --seed on every randomized subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="divergence between two distribution JSONs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mc-samples", type=int, default=200_000, help=_MC_SAMPLES_HELP)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("compare", help="pairwise distance matrix for group CSVs")
    p.add_argument("csv", nargs="+", help="one CSV per group (header = columns)")
    p.add_argument("--names", default=None, help="comma-separated group names")
    p.add_argument("--config", default=None, help="JSON file mirroring the run config")
    p.add_argument("--method", choices=("pca", "jl"), default=None)
    p.add_argument("--sig-digits", dest="sig_digits", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--fit", choices=_FAMILIES, default=None)
    p.add_argument("--bounds", default=None,
                   help="'observed_range' or 'lower,upper' for the truncated fit")
    p.add_argument("--nodes", dest="n_nodes", type=int, default=None,
                   help="discrete-fit node count")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--shrinkage", type=float, default=None)
    p.add_argument("--log-returns", action="store_true", default=None)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=None,
                   help=_MC_SAMPLES_HELP)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("jl", help="random-projection utilities")
    jl_sub = p.add_subparsers(dest="jl_cmd", required=True)
    q = jl_sub.add_parser("min-dim", help="minimum admissible dimension")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--eps", type=float, required=True)
    q = jl_sub.add_parser("project", help="project a CSV of row-points")
    q.add_argument("--input", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--output", required=True)
    q = jl_sub.add_parser("distortion", help="pairwise distortion report")
    q.add_argument("--original", required=True)
    q.add_argument("--projected", required=True)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_jl)

    p = sub.add_parser("approx", help="discrete approximation / mixture density")
    ap_sub = p.add_subparsers(dest="approx_cmd", required=True)
    q = ap_sub.add_parser("moment-match", help="N-point moment-matched distribution")
    source = q.add_mutually_exclusive_group(required=True)
    source.add_argument("--moments", help="comma-separated m_0..m_{2N-1}")
    source.add_argument("--input", help="CSV whose column supplies moments")
    q.add_argument("--column", default=None)
    q.add_argument("--nodes", type=int, required=True)
    q.add_argument("--output", default=None)
    q = ap_sub.add_parser("nln-density", help="mixture sum density grid dump")
    q.add_argument("--k", required=True, help="comma-separated reduced dimensions")
    q.add_argument("--mu-y", dest="mu_y", required=True)
    q.add_argument("--sigma-y", dest="sigma_y", required=True)
    q.add_argument("--points", type=int, default=DEFAULT_GRID_POINTS)
    q.add_argument("--span", type=float, default=DEFAULT_GRID_SPAN)
    q.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("verify", help="run an identity-verification battery")
    p.add_argument("battery", choices=_BATTERIES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (DistsimError, OSError, ValueError, ArithmeticError) as e:
        if isinstance(e, ArithmeticError):
            print(f"numerical failure: {e}", file=sys.stderr)
            return 2
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
