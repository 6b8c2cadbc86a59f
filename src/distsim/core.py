"""Domain types shared by every distsim module.

All distribution containers are immutable after construction, and the
constructor is the one place their invariants are checked: it raises
:class:`~distsim.errors.InvalidDistribution` at the first violation, so it
is impossible to hold an invalid instance that came out of the public API.
A caller that wants the message builds the object and catches the error.

Truncation bounds use genuine IEEE infinities (``float("inf")``), never
large-number sentinels, so untruncated limits are exact.

Serialization: the five distribution types share one JSON form,
``{"type": class name, field: value, ...}`` in field order, with arrays as
nested lists, infinities as the strings ``"-inf"`` / ``"+inf"`` and a
``None`` field left out. Reading it back refuses a non-object document, a
missing field or a value of the wrong JSON type (including numbers written
as strings) with :class:`~distsim.errors.InvalidDistribution`. CSV input
goes through :func:`read_csv`: a header row of column labels, then one row
per observation; a ragged row, a non-numeric cell or (unless the caller
tolerates it) a missing cell raises :class:`~distsim.errors.ParseError`
naming the row and the column.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields
from typing import Callable

import numpy as np

from .errors import InvalidDistribution, ParseError

__all__ = [
    "DiscreteDist",
    "GaussianUni",
    "GaussianMulti",
    "TruncGaussianUni",
    "TruncGaussianMulti",
    "OverlapParams",
    "MvnOverlapParams",
    "SampleMatrix",
    "DistanceMatrix",
    "QuadResult",
    "ScalarFn",
    "ScalarFn2",
    "to_json",
    "from_json",
    "read_csv",
]

# Real function of one / two real arguments (densities, integrands, c(t), h(u), ...)
ScalarFn = Callable[[float], float]
ScalarFn2 = Callable[[float, float], float]

#: |sum(probs) - 1| at or below this is accepted exactly.
PROB_SUM_TOL = 1e-12
#: |sum(probs) - 1| at or below this is renormalized with a warning.
PROB_SUM_RENORM_TOL = 1e-9
#: covariance symmetry tolerance (max abs deviation).
SYMMETRY_TOL = 1e-10
#: largest |diagonal entry| a DistanceMatrix accepts as zero.
DIAG_TOL = 1e-9
#: CSV cell tokens (stripped, lower-cased) that mean "no value".
NA_TOKENS = frozenset({"", "na", "nan", "null", "none", "n/a"})
#: JSON has no literal for an infinity, so one travels as one of these strings.
_INF_TEXT = {math.inf: "+inf", -math.inf: "-inf"}
_TEXT_INF = {"+inf": math.inf, "inf": math.inf, "-inf": -math.inf}


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _encode(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, np.ndarray)):
        return [_encode(x) for x in value]
    value = float(value)
    return _INF_TEXT.get(value, value)


def _decode(name: str, kind: str, value):
    """One JSON field value as the type its annotation ``kind`` names."""
    if kind == "float":
        if isinstance(value, str) and value in _TEXT_INF:
            return _TEXT_INF[value]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif kind == "np.ndarray":
        if isinstance(value, list):
            items = [_decode(name, kind if isinstance(x, list) else "float", x)
                     for x in value]
            try:
                return np.array(items, dtype=float)
            except ValueError:  # rows of different lengths
                raise InvalidDistribution(f"field {name!r} is a ragged array") from None
    elif isinstance(value, list) and all(isinstance(x, str) for x in value):
        return tuple(value)  # labels, the one field of strings
    raise InvalidDistribution(f"field {name!r} has the wrong JSON type: {value!r:.60}")


class _Distribution:
    """A distribution type whose dataclass fields drive its coercion and JSON form.

    Construction turns ``float`` fields into floats and ``np.ndarray`` fields
    into read-only float arrays; each type's ``__post_init__`` then checks
    its invariants in order.
    """

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float":
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
            elif f.type == "np.ndarray":
                object.__setattr__(self, f.name, _freeze(getattr(self, f.name)))

    def to_dict(self) -> dict:
        d = {"type": type(self).__name__}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                d[f.name] = _encode(value)
        return d

    @classmethod
    def from_dict(cls, d: dict):
        kwargs = {}
        for f in fields(cls):
            if d.get(f.name) is not None:
                kwargs[f.name] = _decode(f.name, f.type, d[f.name])
            elif f.default is MISSING:
                raise InvalidDistribution(f"{cls.__name__} needs the field {f.name!r}")
        return cls(**kwargs)


@dataclass(frozen=True, eq=False)
class DiscreteDist(_Distribution):
    """Probability vector over ``k`` categories.

    ``probs`` must be nonnegative and sum to 1 within ``1e-12``. Sums off by
    at most ``1e-9`` (common with CSV-rounded histograms) are renormalized
    with a warning; larger deviations are rejected. ``labels``, if given,
    name each category once.
    """

    probs: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        super().__post_init__()
        p = self.probs
        if p.ndim != 1 or p.size < 1:
            raise InvalidDistribution("probs must be a nonempty 1-D vector")
        if not np.all(np.isfinite(p)):
            raise InvalidDistribution("probs must be finite")
        if np.any(p < 0):
            raise InvalidDistribution("probs must be nonnegative")
        s = float(p.sum())
        if abs(s - 1.0) > PROB_SUM_RENORM_TOL:
            raise InvalidDistribution(f"sum of probs is {s!r}, not 1")
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != p.size:
                raise InvalidDistribution("labels length does not match probs length")
            if len(set(labels)) != len(labels):
                raise InvalidDistribution("labels must be distinct")
            object.__setattr__(self, "labels", labels)
        if abs(s - 1.0) > PROB_SUM_TOL:
            warnings.warn(
                f"probability vector sums to {s!r}; renormalizing", stacklevel=3
            )
            object.__setattr__(self, "probs", _freeze(p / s))

    @property
    def k(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True, eq=False)
class GaussianUni(_Distribution):
    """Univariate normal, parameterized by mean and variance (``sigma2``)."""

    mu: float
    sigma2: float

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma2)):
            raise InvalidDistribution("mu and sigma2 must be finite")
        if self.sigma2 <= 0:
            raise InvalidDistribution(f"sigma2 must be > 0, got {self.sigma2!r}")

    @property
    def sigma(self) -> float:
        """Standard deviation (square root of the stored variance)."""
        return math.sqrt(self.sigma2)


def log_det_condition(cov: np.ndarray) -> tuple[float, float]:
    """``(log det, condition)`` of symmetric ``cov``; ``(nan, inf)`` if not positive definite."""
    vals = np.linalg.eigvalsh(cov)
    lo, hi = float(vals.min()), float(vals.max())
    return (float(np.log(vals).sum()), hi / lo) if lo > 0 else (math.nan, math.inf)


@dataclass(frozen=True, eq=False)
class GaussianMulti(_Distribution):
    """Multivariate normal with mean vector and positive definite covariance.

    ``log_det`` and ``condition`` (:func:`log_det_condition`) are set when built, not fields.
    """

    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        cov = self.cov
        if self.mu.ndim != 1 or not np.all(np.isfinite(self.mu)):
            raise InvalidDistribution("mu must be a finite 1-D vector")
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise InvalidDistribution("cov must be a square matrix")
        if not np.all(np.isfinite(cov)):
            raise InvalidDistribution("cov must be finite")
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
            raise InvalidDistribution("cov is not symmetric")
        log_det, condition = log_det_condition(cov)
        if math.isnan(log_det):
            raise InvalidDistribution("cov is not positive definite")
        if cov.shape[0] != self.mu.size:
            raise InvalidDistribution("mu and cov dimensions do not match")
        object.__setattr__(self, "log_det", log_det)
        object.__setattr__(self, "condition", condition)

    @property
    def k(self) -> int:
        return int(self.mu.size)


@dataclass(frozen=True, eq=False)
class TruncGaussianUni(_Distribution):
    """Univariate normal restricted to ``(lower, upper)`` and renormalized.

    Bounds may be ``-inf`` / ``+inf``; both infinite reproduces the parent
    normal exactly.
    """

    mu: float
    sigma2: float
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        super().__post_init__()
        self.parent()  # checks mu and sigma2
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise InvalidDistribution("bounds must not be NaN")
        if not self.lower < self.upper:
            raise InvalidDistribution(
                f"lower bound {self.lower!r} must be < upper bound {self.upper!r}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def parent(self) -> GaussianUni:
        """The untruncated normal with the same location/scale parameters."""
        return GaussianUni(self.mu, self.sigma2)


@dataclass(frozen=True, eq=False)
class TruncGaussianMulti(_Distribution):
    """Multivariate normal restricted to the box ``[lower, upper]``.

    Bound entries may be infinite coordinate-wise.
    """

    mu: np.ndarray
    cov: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        # checks mu and cov; built once, so every pair sees the same object
        # and its remembered box normaliser
        parent = GaussianMulti(self.mu, self.cov)
        lower, upper = self.lower, self.upper
        if lower.shape != self.mu.shape or upper.shape != self.mu.shape:
            raise InvalidDistribution("bound vectors must match mu length")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise InvalidDistribution("bounds must not be NaN")
        if not np.all(lower < upper):
            raise InvalidDistribution("each lower bound must be < the matching upper bound")
        object.__setattr__(self, "_parent", parent)

    @property
    def k(self) -> int:
        return int(self.mu.size)

    def parent(self) -> GaussianMulti:
        """The untruncated multivariate normal with the same parameters.

        The same object on every call, for the lifetime of this instance.
        """
        return self._parent


@dataclass(frozen=True, eq=False)
class OverlapParams:
    """Parameters of the square-root-product Gaussian on an overlap interval.

    ``nu`` is the precision-weighted mean and ``varsigma`` the matching
    scale; ``(l, u)`` is the common support. Instances exist only for a
    genuinely overlapping pair (``l < u``).
    """

    l: float
    u: float
    nu: float
    varsigma: float

    def __post_init__(self):
        if not self.l < self.u:
            raise InvalidDistribution("overlap interval is empty (l >= u)")
        if not self.varsigma > 0:
            raise InvalidDistribution("varsigma must be > 0")


@dataclass(frozen=True, eq=False)
class MvnOverlapParams:
    """Multivariate analogue of :class:`OverlapParams`.

    ``m`` and ``S`` are the precision-weighted mean and combined covariance
    on the common box ``[l, u]``. ``S`` is checked by building the mixture
    normal ``N(m, 2S)`` once: a refusal comes with ``S: `` before the
    :class:`GaussianMulti` message. ``mixture`` holds it, set when built,
    not a field.
    """

    l: np.ndarray
    u: np.ndarray
    m: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        for name in ("l", "u", "m", "S"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        try:
            mixture = GaussianMulti(self.m, 2.0 * self.S)
        except InvalidDistribution as e:
            raise InvalidDistribution(f"S: {e}") from None
        object.__setattr__(self, "mixture", mixture)


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """``T`` observations (rows) by ``N`` variables (columns), all finite.

    Rows are time/observations and columns are variables throughout the
    package; anything stored transposed must be flipped before wrapping.
    """

    values: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 2:
            raise InvalidDistribution("values must be a 2-D matrix")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise InvalidDistribution("matrix must have at least one row and one column")
        if not np.all(np.isfinite(v)):
            raise InvalidDistribution("all entries must be finite")
        if self.labels and len(self.labels) != v.shape[1]:
            raise InvalidDistribution("labels length does not match column count")
        object.__setattr__(self, "values", v)
        labels = self.labels or tuple(f"c{i}" for i in range(v.shape[1]))
        object.__setattr__(self, "labels", tuple(str(x) for x in labels))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The values, so any function taking an array-like takes a sample matrix."""
        return np.array(self.values, dtype=dtype, copy=copy)

    @property
    def n_obs(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_vars(self) -> int:
        return int(self.values.shape[1])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.labels)
            for row in self.values:
                w.writerow([repr(float(x)) for x in row])

    @classmethod
    def from_csv(cls, path) -> "SampleMatrix":
        """Read what :meth:`to_csv` writes; a missing cell raises ``ParseError``."""
        header, body = read_csv(path)
        return cls(body, header)


def read_csv(path, allow_missing: bool = False) -> tuple[tuple[str, ...], np.ndarray]:
    """The stripped header labels and the data rows of a CSV, as floats.

    Rows are numbered from the header, row 1. A row with the wrong cell count
    or a cell that is neither a number nor one of :data:`NA_TOKENS` raises
    :class:`ParseError` naming the row and the column. NA tokens and
    non-finite numbers are missing: kept as non-finite values when
    ``allow_missing``, otherwise refused the same way.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ParseError(f"{path}: need a header row and at least one data row")
    header = tuple(h.strip() for h in rows[0])
    n_cols = len(header)
    body = np.empty((len(rows) - 1, n_cols))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != n_cols:
            raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {n_cols}; "
                             f"column {min(len(row), n_cols) + 1} is the first that differs")
        for c, cell in enumerate(row):
            token = cell.strip()
            try:
                value = math.nan if token.lower() in NA_TOKENS else float(token)
            except ValueError:
                raise ParseError(f"{path}: non-numeric cell {cell!r} at row {r}, "
                                 f"column {header[c]!r}") from None
            if not (allow_missing or math.isfinite(value)):
                raise ParseError(f"{path}: missing or non-finite cell {cell!r} at row {r}, "
                                 f"column {header[c]!r}")
            body[r - 2, c] = value
    return header, body


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Labeled pairwise distance table; asymmetric unless flagged otherwise.

    Entries may be ``+inf`` (disjoint supports); the diagonal must vanish.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        g = len(self.labels)
        if v.shape != (g, g):
            raise InvalidDistribution("values must be G x G with G = len(labels)")
        if np.any(np.isnan(v)):
            raise InvalidDistribution("distances must not be NaN")
        if np.any(v < 0):
            raise InvalidDistribution("distances must be >= 0")
        if np.max(np.abs(np.diag(v))) > DIAG_TOL:
            raise InvalidDistribution("diagonal must be zero")
        if self.symmetric:
            finite = np.isfinite(v)
            both = finite & finite.T
            gap = np.abs(np.where(both, v, 0.0) - np.where(both, v.T, 0.0))
            if not np.array_equal(finite, finite.T) or np.max(gap) > 1e-10:
                raise InvalidDistribution("matrix flagged symmetric but is not")
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        object.__setattr__(self, "values", _freeze(v))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([""] + list(self.labels))
            for name, row in zip(self.labels, self.values):
                w.writerow([name] + [repr(float(x)) for x in row])

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": [[(float(x) if math.isfinite(x) else "inf") for x in row]
                       for row in self.values],
            "symmetric": bool(self.symmetric),
        }


@dataclass(frozen=True)
class QuadResult:
    """Numerical integral value with an error estimate and evaluation count.

    ``value`` is an array for a vector-valued integrand of ``integrate_1d``.
    """

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.error_estimate >= 0:
            raise InvalidDistribution("error_estimate must be >= 0")


def to_json(dist) -> str:
    """Serialize a distribution to JSON (infinities as "-inf"/"+inf")."""
    return json.dumps(dist.to_dict())


def from_json(text: str):
    """Inverse of :func:`to_json`; dispatches on the embedded "type" field.

    Text that is not a JSON object of a known type, with every field it
    needs and of the right JSON type, raises :class:`InvalidDistribution`.
    """
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidDistribution(f"not a JSON document: {e}") from None
    if not isinstance(d, dict):
        raise InvalidDistribution(f"a distribution is a JSON object, not {type(d).__name__}")
    cls = next((t for t in _Distribution.__subclasses__() if t.__name__ == d.get("type")), None)
    if cls is None:
        raise InvalidDistribution(f"unknown distribution type {d.get('type')!r}")
    return cls.from_dict(d)
