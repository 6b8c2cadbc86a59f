"""Group comparison pipeline: ingest, reduce, fit, and compare.

Given several groups of column-aligned observations (e.g. one price matrix
per market, days as rows and tickers as columns), produce the full pairwise
distance matrix between fitted distributions, either by

* the PCA path: reduce the first group of an ordered pair with the
  increment-rounding retention rule, force the second group to the same
  component count, and fall back to a random projection when the counts
  still differ (the resulting matrix is generally asymmetric and is always
  reported in full), or
* the random-projection path: project every group to one common dimension
  with a per-iteration seeded Gaussian map (groups sharing a source
  dimension share the map), repeated over several iterations whose spread
  is part of the output.

Each random-projection iteration reduces and fits every group once, then
only compares. The PCA path does its iteration-invariant work once per run:
a group is decomposed at most twice (retention rule, then every score
column a pair needs) and fitted once per column count; each iteration then
only fits a first group projected to match its pair, inside the pair, and
compares.

Fits: multivariate normal with diagonal shrinkage; truncated multivariate
normal assembled from per-column truncated fits plus the sample
correlation; or per-column moment-matched discrete approximations whose
product-form overlap factorizes across columns, all fitted by one
``moment_match`` call. Both normal fits start the shrinkage ladder at
``RunConfig.shrinkage`` and note any raise.

Raw levels are compared by default; a log-return transform is opt-in.
Everything is deterministic given the run seed. Pairwise comparisons (and
the PCA path's fits) can fan out over ``DISTSIM_THREADS`` threads without
changing results; a value that is not a positive integer is rejected.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Sequence

import numpy as np

from .core import (
    DistanceMatrix,
    GaussianMulti,
    SampleMatrix,
    TruncGaussianMulti,
    TruncGaussianUni,
    _encode,
    read_csv,
)
from .divergence import DivergenceValue
from .errors import (
    DegenerateData,
    DimensionMismatch,
    DomainError,
    EmptyAfterCleaning,
    InvalidDistribution,
)
from .gaussian import bc_mvn, bc_truncated_mvn, fit_truncated_normal
from .approx import _sample_moments, moment_match
from .quadrature import QuadConfig
from .reduce import jl_min_dimension, jl_project, pca_reduce

__all__ = [
    "GroupDataset",
    "RunConfig",
    "ComparisonResult",
    "load_group",
    "estimate_mvn",
    "estimate_truncated_uni",
    "compare_groups",
]

#: shrinkage ladder tried (in order) until the covariance is well conditioned.
SHRINKAGE_LADDER = (0.0, 0.01, 0.05, 0.1, 0.25)
#: covariance condition number accepted by the estimators.
MAX_COND = 1e10
#: RunConfig field annotation -> the values it admits (bool is no number here).
_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool}

_ENV_THREADS = "DISTSIM_THREADS"


@dataclass(frozen=True, eq=False)
class GroupDataset:
    """A named group: observations as rows, at least two variables."""

    name: str
    data: SampleMatrix

    def __post_init__(self):
        if not self.name:
            raise DomainError("group name must be nonempty")
        if self.data.n_vars < 2:
            raise InvalidDistribution("a group needs at least 2 variables")


@dataclass(frozen=True)
class RunConfig:
    """Settings for one comparison run; mirrors the JSON config file.

    ``method`` selects the reduction path. The projection dimension comes
    from ``k`` when given, otherwise from the distortion budget ``epsilon``
    and the row count. ``fit`` is one of ``mvn``, ``truncated``,
    ``discrete``; ``bounds`` applies to the truncated fit and is either
    ``"observed_range"`` or a fixed ``(lower, upper)`` pair (an infinite
    bound may be ``"-inf"`` or ``"+inf"``). A field whose value is not of
    its annotated type raises :class:`DomainError`.
    """

    method: str = "jl"
    sig_digits: int = 3
    epsilon: float | None = None
    k: int | None = None
    fit: str = "mvn"
    bounds: object = "observed_range"
    n_nodes: int = 3
    iterations: int = 1
    seed: int = 0
    shrinkage: float = 0.0
    log_returns: bool = False
    mc_samples: int = 200_000
    out_dir: str | None = None

    def __post_init__(self):
        for f in fields(self):
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            if kind == "object" or value is None and optional:
                continue
            if (not isinstance(value, _FIELD_KINDS[kind])
                    or isinstance(value, bool) and kind != "bool"):
                raise DomainError(f"{f.name} must be {f.type}, got {value!r}")
        if self.method not in ("pca", "jl"):
            raise DomainError(f"method must be 'pca' or 'jl', got {self.method!r}")
        if self.fit not in _FAMILIES:
            raise DomainError(f"unknown fit {self.fit!r}")
        if self.iterations < 1:
            raise DomainError("iterations must be >= 1")
        if not 0.0 <= self.shrinkage < 1.0:
            raise DomainError("shrinkage must be in [0, 1)")
        if self.sig_digits < 1:
            raise DomainError("sig_digits must be >= 1")
        if self.n_nodes < 1:
            raise DomainError("n_nodes must be >= 1")
        if self.method == "jl" and self.k is None and self.epsilon is None:
            raise DomainError("the jl method needs either k or epsilon")
        if isinstance(self.bounds, str):
            if self.bounds != "observed_range":
                raise DomainError("bounds must be 'observed_range' or a (lower, upper) pair")
        elif (isinstance(self.bounds, (tuple, list)) and len(self.bounds) == 2
              and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                      or x in ("-inf", "+inf") for x in self.bounds)):
            object.__setattr__(self, "bounds", tuple(float(x) for x in self.bounds))
        else:
            raise DomainError(f"bounds must be a (lower, upper) pair, got {self.bounds!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        if isinstance(self.bounds, tuple):
            d["bounds"] = _encode(self.bounds)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise DomainError(f"a run config is a JSON object, not {type(d).__name__}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise DomainError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class ComparisonResult:
    """Per-iteration distance matrices with a cross-iteration summary.

    ``pair_summary`` maps ``"A->B"`` to mean/min/max distance across
    iterations; ``argmin_pairs`` lists the closest pair in each iteration;
    ``notes`` records every silent-looking decision (shrinkage raised,
    dimensions rebalanced) in plain words.
    """

    labels: tuple[str, ...]
    matrices: tuple[DistanceMatrix, ...]
    pair_summary: dict
    argmin_pairs: tuple[tuple[str, str], ...]
    config: RunConfig
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "labels": list(self.labels),
            "iterations": [
                {"iteration": i, "matrix": m.to_dict()["matrix"]}
                for i, m in enumerate(self.matrices)
            ],
            "pair_summary": {
                pair: {k: v if math.isfinite(v) else "inf" for k, v in stats.items()}
                for pair, stats in self.pair_summary.items()},
            "argmin_pairs": [list(p) for p in self.argmin_pairs],
            "notes": list(self.notes),
        }


def load_group(path, name: str) -> GroupDataset:
    """Load one group from CSV (header row = column labels).

    The file is read by :func:`~distsim.core.read_csv`, so a ragged row or
    a cell that is neither numeric nor NA-like raises :class:`ParseError`
    naming the row and column. A column holding a missing cell (an NA token
    or a non-finite number) is dropped with a warning (row count is
    preserved); :class:`EmptyAfterCleaning` if no column is left.
    """
    header, body = read_csv(path, allow_missing=True)
    keep = np.isfinite(body).all(axis=0)
    if not keep.all():
        dropped = [h for h, k in zip(header, keep) if not k]
        warnings.warn(
            f"{path}: dropped {len(dropped)} column(s) with missing values: "
            f"{', '.join(dropped[:8])}{'...' if len(dropped) > 8 else ''}",
            stacklevel=2,
        )
    if not keep.any():
        raise EmptyAfterCleaning(f"{path}: every column had missing values")
    return GroupDataset(name, SampleMatrix(
        body[:, keep], tuple(h for h, k in zip(header, keep) if k)
    ))


def estimate_mvn(data: SampleMatrix, shrinkage: float = 0.0,
                 ) -> tuple[GaussianMulti, float]:
    """Column means and shrunk sample covariance; returns (fit, shrinkage used).

    The covariance is ``(1 - lam) * S + lam * avg_var * I``. If the
    requested ``lam`` leaves the matrix with condition number at or above
    1e10, the smallest larger ladder value that fixes it is used instead
    (the caller should surface the returned value in run metadata). Data
    whose sample covariance overflows the float range raise
    :class:`DegenerateData`.
    """
    values = np.asarray(data.values, dtype=float)
    if values.shape[0] < 2:
        raise DegenerateData("need at least two observations")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean(axis=0)
        cov = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    if not np.all(np.isfinite(cov)):
        raise DegenerateData("sample covariance overflows the float range")
    avg_var = float(np.mean(np.diag(cov)))
    if avg_var <= 0.0:
        raise DegenerateData("all columns are constant")
    return _shrink(mean, cov, avg_var, shrinkage, "covariance")


def _shrink(mean: np.ndarray, mat: np.ndarray, scale: float, start: float,
            what: str) -> tuple[GaussianMulti, float]:
    """``N(mean, (1 - lam) * mat + lam * scale * I)`` for the first ``lam`` of
    the ladder from ``start`` up whose normal builds with a condition number
    below ``MAX_COND``; returns the normal and ``lam``."""
    eye = np.eye(mat.shape[0])
    for lam in sorted({start, *[x for x in SHRINKAGE_LADDER if x >= start]}):
        try:
            fit = GaussianMulti(mean, (1.0 - lam) * mat + lam * scale * eye)
        except InvalidDistribution:  # not positive definite at this lam
            continue
        if fit.condition < MAX_COND:
            return fit, lam
    raise DegenerateData(f"{what} stayed ill-conditioned through the shrinkage ladder")


def estimate_truncated_uni(column, bounds="observed_range") -> TruncGaussianUni:
    """Fit a truncated normal to one column by matching mean and variance.

    ``bounds`` is ``"observed_range"`` (data min/max) or a fixed
    ``(lower, upper)`` pair, possibly infinite. The location/scale pair comes
    from :func:`~distsim.gaussian.fit_truncated_normal`. A column flatter than
    every truncated normal on its range, one whose mean lies outside fixed
    bounds, or a solve that raises an ``ArithmeticError`` takes the
    untruncated sample moments with a warning that gives the reason.
    """
    x = np.asarray(column, dtype=float).ravel()
    if x.size < 10:
        raise DomainError("need at least 10 observations")
    if not np.all(np.isfinite(x)):
        raise DomainError("observations must be finite")
    s_mean = float(x.mean())
    s_var = float(x.var(ddof=1))
    if s_var <= 0.0:
        raise DegenerateData("column is constant")
    if bounds == "observed_range":
        lo, hi = float(x.min()), float(x.max())
        # widen a hair so the extreme observations stay interior
        pad = 1e-9 * max(hi - lo, 1.0)
        lo, hi = lo - pad, hi + pad
    else:
        lo, hi = float(bounds[0]), float(bounds[1])
        if not lo < hi:
            raise DomainError("fixed bounds must satisfy lower < upper")
    try:
        mu, sigma = fit_truncated_normal(s_mean, s_var, lo, hi)
    except (ArithmeticError, DomainError) as e:  # too flat, mean off the bounds, overflow
        warnings.warn(f"truncated-normal moment solve failed ({type(e).__name__}: {e}); "
                      "falling back to untruncated sample moments", stacklevel=2)
        return TruncGaussianUni(s_mean, s_var, lo, hi)
    return TruncGaussianUni(mu, sigma * sigma, lo, hi)


def _fit_mvn(name: str, matrix: np.ndarray, cfg: RunConfig,
             notes: list[str]) -> GaussianMulti:
    dist, lam = estimate_mvn(SampleMatrix(matrix), cfg.shrinkage)
    if lam > cfg.shrinkage:
        notes.append(f"{name}: shrinkage raised to {lam}")
    return dist


def _fit_truncated_mvn(name: str, matrix: np.ndarray, cfg: RunConfig,
                       notes: list[str]) -> TruncGaussianMulti:
    """Per-column truncated fits tied together by the sample correlation."""
    k = matrix.shape[1]
    fits = [estimate_truncated_uni(matrix[:, j], cfg.bounds) for j in range(k)]
    sds = np.array([f.sigma for f in fits])
    corr = np.atleast_2d(np.corrcoef(matrix, rowvar=False))
    shrunk, lam = _shrink(np.zeros(k), corr, 1.0, cfg.shrinkage, "sample correlation")
    if lam > cfg.shrinkage:
        notes.append(f"{name}: shrinkage raised to {lam}")
    return TruncGaussianMulti(
        np.array([f.mu for f in fits]), shrunk.cov * np.outer(sds, sds),
        np.array([f.lower for f in fits]), np.array([f.upper for f in fits]),
    )


def _fit_discrete(name: str, matrix: np.ndarray, cfg: RunConfig, notes: list[str]):
    """Per-column moment-matched discrete approximations (empirical moments), one call."""
    return moment_match(_sample_moments(matrix, 2 * cfg.n_nodes), cfg.n_nodes)


def _discrete_distance(blocks_a, blocks_b) -> float:
    """Overlap distance of two product-form discrete fits.

    Cells are aligned by index, so the coefficient factorizes into the
    product of per-column coefficients.
    """
    rho = 1.0
    for da, db in zip(blocks_a, blocks_b):
        rho *= float(np.sqrt(da.weights * db.weights).sum())
    return DivergenceValue.from_coefficient(min(rho, 1.0)).distance


#: fit family -> (fit(name, matrix, cfg, notes), distance(a, b, quad) -> float).
#: Estimators and distances are looked up as module globals at call time, so
#: a wrapper set on this module (as ``bench/tracing.py`` does) sees every call.
_FAMILIES = {
    "mvn": (_fit_mvn, lambda a, b, quad: bc_mvn(a, b).distance),
    "truncated": (_fit_truncated_mvn,
                  lambda a, b, quad: bc_truncated_mvn(a, b, quad).distance),
    "discrete": (_fit_discrete, lambda a, b, quad: _discrete_distance(a, b)),
}


def _log_returns(values: np.ndarray) -> np.ndarray:
    if np.any(values <= 0):
        raise DomainError("log returns need strictly positive levels")
    return np.log(values[1:] / values[:-1])


def _thread_count() -> int:
    raw = os.environ.get(_ENV_THREADS) or "1"
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise DomainError(f"{_ENV_THREADS} must be a positive integer, got {raw!r}")
    return int(raw)


def _map(fn, items: list) -> list:
    """``[fn(x) for x in items]``, in order, over ``DISTSIM_THREADS`` threads."""
    threads = _thread_count()
    if threads == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _jl_iteration(groups, k: int, fit, iter_seed: np.random.SeedSequence,
                  distance) -> np.ndarray:
    """One projection round: one map per source dimension, one fit per group."""
    g = len(groups)
    maps: dict[int, int] = {}
    fits = []
    for grp in groups:
        d = grp.data.n_vars
        if d not in maps:
            maps[d] = np.random.SeedSequence(
                entropy=iter_seed.entropy, spawn_key=iter_seed.spawn_key + (d,)
            ).generate_state(1)[0]
        projected = jl_project(grp.data, k, maps[d])
        fits.append(fit(grp.name, np.asarray(projected.values)))

    values = np.zeros((g, g))
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    for (i, j), dist in zip(pairs, _map(lambda p: distance(fits[p[0]], fits[p[1]]),
                                        pairs)):
        values[i, j] = values[j, i] = dist
    return values


def _pca_path(groups, cfg: RunConfig, fit, notes: list[str]):
    """Decompose and fit once; return the per-iteration step.

    Ordered pairs ``i -> j``: group j keeps as many leading components as
    group i's retention rule does; if j has fewer, i's scores are projected
    down to j's count with a per-pair seeded map. Only that projection and
    the distances depend on the iteration, so the retention counts, the
    score decompositions and the ``(group, count)`` fits are made here once.
    """
    g = len(groups)
    kept = [pca_reduce(grp.data, significant_digits=cfg.sig_digits,
                       return_truncated=True)[1]
            for grp in groups]
    # every count a pair asks of a group is a prefix of one decomposition
    scores = [np.asarray(pca_reduce(grp.data, component_count=max(kept),
                                    return_truncated=True)[0].values)
              for grp in groups]

    def columns(i: int, count: int) -> np.ndarray:
        # a contiguous copy, like a decomposition returns, so fits see one layout
        return np.ascontiguousarray(scores[i][:, :count])

    pairs = [(i, j) for i in range(g) for j in range(g) if i != j]
    count = {(i, j): min(kept[i], scores[j].shape[1]) for i, j in pairs}
    needed = sorted({(j, count[i, j]) for i, j in pairs}
                    | {(i, kept[i]) for i, j in pairs if count[i, j] == kept[i]})
    fits = dict(zip(needed, _map(lambda key: fit(groups[key[0]].name, columns(*key)),
                                 needed)))

    def iteration(iter_seed: np.random.SeedSequence, distance) -> np.ndarray:
        def one(pair):
            i, j = pair
            c = count[pair]
            if c == kept[i]:
                return distance(fits[i, c], fits[j, c])
            seed = np.random.SeedSequence(
                entropy=iter_seed.entropy, spawn_key=iter_seed.spawn_key + (7, i, j),
            ).generate_state(1)[0]
            notes.append(f"{groups[i].name}->{groups[j].name}: first group projected "
                         f"from {kept[i]} to {c} columns to match the second")
            lead = fit(groups[i].name,
                       np.asarray(jl_project(columns(i, kept[i]), c, seed)))
            return distance(lead, fits[j, c])

        values = np.zeros((g, g))
        for (i, j), dist in zip(pairs, _map(one, pairs)):
            values[i, j] = dist
        return values

    return iteration


def compare_groups(groups: Sequence[GroupDataset], cfg: RunConfig) -> ComparisonResult:
    """Full pairwise distance matrices for every iteration, plus a summary.

    All groups must share the observation count. The random-projection path
    yields one symmetric matrix per iteration; the PCA path yields one
    (generally asymmetric) matrix, identical across iterations unless a
    seeded projection had to rebalance dimensions.
    """
    if len(groups) < 2:
        raise DomainError("need at least two groups")
    names = [g.name for g in groups]
    if len(set(names)) != len(names):
        raise DomainError("group names must be unique")
    t_counts = {g.data.n_obs for g in groups}
    if len(t_counts) != 1:
        raise DimensionMismatch(f"groups disagree on observation count: {t_counts}")

    if cfg.log_returns:
        groups = [
            GroupDataset(g.name, SampleMatrix(_log_returns(np.asarray(g.data.values)),
                                              g.data.labels))
            for g in groups
        ]

    t_obs = groups[0].data.n_obs
    notes: list[str] = []
    if cfg.method == "jl":
        k = cfg.k if cfg.k is not None else jl_min_dimension(t_obs, cfg.epsilon)
        if cfg.k is None:
            notes.append(f"projection dimension {k} derived from epsilon={cfg.epsilon}")
    else:
        k = None

    root = np.random.SeedSequence(cfg.seed)
    iter_seeds = root.spawn(cfg.iterations)
    matrices = []
    argmins = []
    fit_family, distance_family = _FAMILIES[cfg.fit]
    fit = partial(fit_family, cfg=cfg, notes=notes)
    sym = cfg.method == "jl"
    if sym:
        iteration = partial(_jl_iteration, groups, k, fit)
    else:
        iteration = _pca_path(groups, cfg, fit, notes)
    for it in range(cfg.iterations):
        distance = partial(distance_family, quad=QuadConfig(
            seed=int(iter_seeds[it].generate_state(1)[0]), mc_samples=cfg.mc_samples))
        values = iteration(iter_seeds[it], distance)
        matrices.append(DistanceMatrix(tuple(names), values, symmetric=sym))
        off = values + np.diag(np.full(len(names), math.inf))
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        argmins.append((names[i], names[j]))

    summary = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i == j:
                continue
            dists = [m.values[i, j] for m in matrices]
            summary[f"{a}->{b}"] = {
                "mean": float(np.mean(dists)),
                "min": float(np.min(dists)),
                "max": float(np.max(dists)),
            }
    # dedupe and sort so threaded runs emit identical metadata
    canonical_notes = tuple(sorted(set(notes)))
    return ComparisonResult(tuple(names), tuple(matrices), summary,
                            tuple(argmins), cfg, canonical_notes)
