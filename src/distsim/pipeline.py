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
a group is decomposed once (its retention count and every score column a
pair needs) and fitted once per column count; each iteration then
only fits a first group projected to match its pair, inside the pair, and
compares. Either path hands each iteration's pairs and their distance to
``compare_groups``, which alone maps the pairs and fills the matrix; every
map, pair and box seed is a child of the iteration seed (``_child_seed``).

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
from .reduce import _points, jl_min_dimension, jl_project, pca_reduce

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
#: smallest positive normal float: a sample variance below it has lost its digits.
_TINY = np.finfo(float).tiny
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
    bound may be ``"-inf"`` or ``"+inf"``). ``mc_samples`` caps each box
    probability of the truncated fit and is judged here, whatever the fit,
    by :class:`~distsim.quadrature.QuadConfig`'s rule. A field whose value
    is not of its annotated type raises :class:`DomainError`.
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
        QuadConfig(mc_samples=self.mc_samples)  # judged by the rule of the boxes it caps
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


def estimate_mvn(data, shrinkage: float = 0.0) -> tuple[GaussianMulti, float]:
    """Column means and shrunk sample covariance; returns (fit, shrinkage used).

    ``data`` is an array-like of observations (rows), judged as every
    :mod:`~distsim.reduce` input is. The covariance is ``(1 - lam) * S + lam
    * avg_var * I``. If the requested ``lam`` leaves the matrix with condition
    number at or above 1e10, the smallest larger ladder value that fixes it
    is used instead (the caller should surface the returned value in run
    metadata). Data whose sample covariance overflows the float range, or
    with a positive sample variance below it, raise :class:`DegenerateData`.
    """
    values = _points(data)
    if values.shape[0] < 2:
        raise DegenerateData("need at least two observations")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean(axis=0)
        cov = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    if not np.all(np.isfinite(cov)):
        raise DegenerateData("sample covariance overflows the float range")
    var = np.diag(cov)
    if np.any((var > 0.0) & (var < _TINY)):
        raise DegenerateData("sample variance underflows the float range")
    avg_var = float(np.mean(var))
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

    ``bounds`` is ``"observed_range"`` (data min/max, widened by 1e-9 of the
    range, so the fit does not depend on the units) or a fixed ``(lower,
    upper)`` pair, possibly infinite. A sample variance below the float range
    raises :class:`DegenerateData`. The location/scale pair comes
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
    if s_var < _TINY:
        raise DegenerateData("sample variance underflows the float range")
    if bounds == "observed_range":
        lo, hi = float(x.min()), float(x.max())
        # widen a hair so the extreme observations stay interior
        pad = 1e-9 * (hi - lo)
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
    dist, lam = estimate_mvn(matrix, cfg.shrinkage)
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
    with np.errstate(over="ignore", divide="ignore"):
        returns = np.log(values[1:] / values[:-1])
    if not np.isfinite(returns).all():
        raise DegenerateData("log returns overflow the float range")
    return returns


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


def _child_seed(parent: np.random.SeedSequence, *key: int) -> np.uint32:
    """First word of the sequence whose spawn key extends ``parent``'s by ``key``."""
    return np.random.SeedSequence(
        entropy=parent.entropy, spawn_key=parent.spawn_key + key).generate_state(1)[0]


def _jl_path(names, arrays, k: int, fit):
    """Return the per-iteration step: unordered pairs ``i < j`` and their
    distance, after fitting every group once, projected with the map of its
    source dimension ``d`` (seed ``_child_seed(iter_seed, d)``)."""
    g = len(names)
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]

    def iteration(iter_seed: np.random.SeedSequence, distance):
        fits = [fit(name, jl_project(x, k, _child_seed(iter_seed, x.shape[1])))
                for name, x in zip(names, arrays)]
        return pairs, lambda pair: distance(fits[pair[0]], fits[pair[1]])

    return iteration


def _pca_path(names, arrays, sig_digits: int, fit, notes: list[str]):
    """Decompose and fit once; return the per-iteration step: ordered pairs
    ``i != j`` in row-major order and their distance.

    Ordered pairs ``i -> j``: group j keeps as many leading components as
    group i's retention rule does; if j has fewer, i's scores are projected
    down to j's count with a per-pair map (seed ``_child_seed(iter_seed, 7,
    i, j)``). Only that projection and the distances depend on the
    iteration, so the retention counts, the score decompositions and the
    ``(group, count)`` fits are made here once.
    """
    g = len(names)
    # every count a pair asks of a group is a prefix of its one decomposition
    scores, kept = zip(*[pca_reduce(x, significant_digits=sig_digits) for x in arrays])

    def columns(i: int, count: int) -> np.ndarray:
        # a contiguous copy of the leading columns, so every fit sees one layout
        return np.ascontiguousarray(scores[i][:, :count])

    pairs = [(i, j) for i in range(g) for j in range(g) if i != j]
    count = {(i, j): min(kept[i], scores[j].shape[1]) for i, j in pairs}
    needed = sorted({(j, count[i, j]) for i, j in pairs}
                    | {(i, kept[i]) for i, j in pairs if count[i, j] == kept[i]})
    fits = dict(zip(needed, _map(lambda key: fit(names[key[0]], columns(*key)), needed)))

    def iteration(iter_seed: np.random.SeedSequence, distance):
        def one(pair):
            i, j = pair
            c = count[pair]
            if c == kept[i]:
                return distance(fits[i, c], fits[j, c])
            notes.append(f"{names[i]}->{names[j]}: first group projected "
                         f"from {kept[i]} to {c} columns to match the second")
            lead = fit(names[i], jl_project(columns(i, kept[i]), c,
                                            _child_seed(iter_seed, 7, i, j)))
            return distance(lead, fits[j, c])

        return pairs, one

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

    arrays = [np.asarray(g.data) for g in groups]
    if cfg.log_returns:
        arrays = [_log_returns(x) for x in arrays]

    notes: list[str] = []
    fit_family, distance_family = _FAMILIES[cfg.fit]
    fit = partial(fit_family, cfg=cfg, notes=notes)
    sym = cfg.method == "jl"
    if sym:
        k = cfg.k
        if k is None:
            k = jl_min_dimension(arrays[0].shape[0], cfg.epsilon)
            notes.append(f"projection dimension {k} derived from epsilon={cfg.epsilon}")
        iteration = _jl_path(names, arrays, k, fit)
    else:
        iteration = _pca_path(names, arrays, cfg.sig_digits, fit, notes)

    values = np.zeros((cfg.iterations, len(names), len(names)))
    for it, iter_seed in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.iterations)):
        distance = partial(distance_family, quad=QuadConfig(
            seed=int(_child_seed(iter_seed)), mc_samples=cfg.mc_samples))
        pairs, pair_distance = iteration(iter_seed, distance)
        for (i, j), dist in zip(pairs, _map(pair_distance, pairs)):
            values[it, i, j] = dist
            if sym:
                values[it, j, i] = dist
    matrices = tuple(DistanceMatrix(tuple(names), v, symmetric=sym) for v in values)

    off = ~np.eye(len(names), dtype=bool)
    rows, cols = np.nonzero(off)
    argmins = tuple((names[rows[f]], names[cols[f]]) for f in np.argmin(values[:, off], axis=1))
    # each pair's series contiguous, so each statistic reduces it as np.mean(list) would
    series = values.transpose(1, 2, 0).copy()
    stats = {"mean": series.mean(axis=2), "min": series.min(axis=2), "max": series.max(axis=2)}
    summary = {f"{names[i]}->{names[j]}": {key: float(v[i, j]) for key, v in stats.items()}
               for i, j in zip(rows, cols)}
    # dedupe and sort the notes so threaded runs emit identical metadata
    return ComparisonResult(tuple(names), matrices, summary, argmins, cfg,
                            tuple(sorted(set(notes))))
