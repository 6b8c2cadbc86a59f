"""Domain types shared by every distsim module.

All distribution containers are immutable after construction and validate
their invariants in the constructor: it is impossible to hold an invalid
instance that came out of the public API. Each type also exposes a
``check(...)`` classmethod that reports the first violated invariant as a
string (or ``None``) without raising, and the module-level :func:`validate`
re-checks an existing instance the same way.

Truncation bounds use genuine IEEE infinities (``float("inf")``), never
large-number sentinels, so untruncated limits are exact.

Serialization: every distribution type round-trips through JSON with
fields stored by name and infinities encoded as the strings ``"-inf"`` /
``"+inf"``; :class:`SampleMatrix` reads and writes CSV with the header row
holding column labels and one row per observation.
"""

from __future__ import annotations

import csv
import json
import math
import threading
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidDistribution

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
    "validate",
    "to_json",
    "from_json",
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


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _is_finite_vector(v: np.ndarray) -> bool:
    return v.ndim == 1 and np.all(np.isfinite(v))


class ObjectMemo:
    """Values derived from one distribution object, kept while it lives.

    Entries are keyed on the object's identity through a weak reference
    (every distribution type is ``eq=False``), so they die with the object
    and two equal-valued objects never share one. Each ``(object, key)`` slot
    has its own lock: the first caller computes under it, racing callers wait
    for its value, other keys compute in parallel, and a ``compute`` that
    raises leaves the slot empty. Memoise only deterministic values: then a
    hit returns the bits a recomputation would.
    """

    def __init__(self):
        self._table: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def get(self, obj, key, compute: Callable[[], object]):
        """``compute()`` for ``(obj, key)``, or the value remembered for it."""
        with self._lock:
            entry = self._table.setdefault(obj, {})
            slot = entry.get(key) or entry.setdefault(key, [threading.Lock()])
        with slot[0]:
            if len(slot) == 1:
                slot.append(compute())
            return slot[1]

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)


@dataclass(frozen=True, eq=False)
class DiscreteDist:
    """Probability vector over ``k`` categories.

    ``probs`` must be nonnegative and sum to 1 within ``1e-12``. Sums off by
    at most ``1e-9`` (common with CSV-rounded histograms) are renormalized
    with a warning; larger deviations are rejected.
    """

    probs: np.ndarray
    labels: tuple[str, ...] | None = None

    @classmethod
    def check(cls, probs, labels=None) -> str | None:
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            return "probs must be a nonempty 1-D vector"
        if not np.all(np.isfinite(p)):
            return "probs must be finite"
        if np.any(p < 0):
            return "probs must be nonnegative"
        if abs(float(p.sum()) - 1.0) > PROB_SUM_RENORM_TOL:
            return f"sum of probs is {float(p.sum())!r}, not 1"
        if labels is not None and len(labels) != p.size:
            return "labels length does not match probs length"
        return None

    def __post_init__(self):
        msg = self.check(self.probs, self.labels)
        if msg is not None:
            raise InvalidDistribution(msg)
        p = np.asarray(self.probs, dtype=float)
        s = float(p.sum())
        if abs(s - 1.0) > PROB_SUM_TOL:
            warnings.warn(
                f"probability vector sums to {s!r}; renormalizing", stacklevel=3
            )
            p = p / s
        object.__setattr__(self, "probs", _freeze(p))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))

    @property
    def k(self) -> int:
        return int(self.probs.size)

    def to_dict(self) -> dict:
        d = {"type": "DiscreteDist", "probs": [float(x) for x in self.probs]}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteDist":
        return cls(np.asarray(d["probs"], dtype=float),
                   tuple(d["labels"]) if d.get("labels") is not None else None)


@dataclass(frozen=True, eq=False)
class GaussianUni:
    """Univariate normal, parameterized by mean and variance (``sigma2``)."""

    mu: float
    sigma2: float

    @classmethod
    def check(cls, mu, sigma2) -> str | None:
        if not (math.isfinite(mu) and math.isfinite(sigma2)):
            return "mu and sigma2 must be finite"
        if sigma2 <= 0:
            return f"sigma2 must be > 0, got {sigma2!r}"
        return None

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        msg = self.check(self.mu, self.sigma2)
        if msg is not None:
            raise InvalidDistribution(msg)

    @property
    def sigma(self) -> float:
        """Standard deviation (square root of the stored variance)."""
        return math.sqrt(self.sigma2)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def to_dict(self) -> dict:
        return {"type": "GaussianUni", "mu": self.mu, "sigma2": self.sigma2}

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianUni":
        return cls(float(d["mu"]), float(d["sigma2"]))


def _check_cov(cov: np.ndarray) -> str | None:
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        return "cov must be a square matrix"
    if not np.all(np.isfinite(cov)):
        return "cov must be finite"
    if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
        return "cov is not symmetric"
    eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    if eigvals.min() <= 0:
        return "cov is not positive definite"
    return None


@dataclass(frozen=True, eq=False)
class GaussianMulti:
    """Multivariate normal with mean vector and positive definite covariance."""

    mu: np.ndarray
    cov: np.ndarray

    @classmethod
    def check(cls, mu, cov) -> str | None:
        mu = np.asarray(mu, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if not _is_finite_vector(mu):
            return "mu must be a finite 1-D vector"
        msg = _check_cov(cov)
        if msg is not None:
            return msg
        if cov.shape[0] != mu.size:
            return "mu and cov dimensions do not match"
        return None

    def __post_init__(self):
        msg = self.check(self.mu, self.cov)
        if msg is not None:
            raise InvalidDistribution(msg)
        object.__setattr__(self, "mu", _freeze(np.asarray(self.mu, dtype=float)))
        object.__setattr__(self, "cov", _freeze(np.asarray(self.cov, dtype=float)))

    @property
    def k(self) -> int:
        return int(self.mu.size)

    def pdf(self, x) -> float:
        x = np.asarray(x, dtype=float)
        d = x - self.mu
        sol = np.linalg.solve(self.cov, d)
        logdet = float(np.sum(np.log(np.linalg.eigvalsh(self.cov))))
        q = float(d @ sol)
        return math.exp(-0.5 * (q + logdet + self.k * math.log(2.0 * math.pi)))

    def to_dict(self) -> dict:
        return {
            "type": "GaussianMulti",
            "mu": [float(x) for x in self.mu],
            "cov": [[float(x) for x in row] for row in self.cov],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianMulti":
        return cls(np.asarray(d["mu"], dtype=float), np.asarray(d["cov"], dtype=float))


def _enc_bound(x: float):
    if x == math.inf:
        return "+inf"
    if x == -math.inf:
        return "-inf"
    return float(x)


def _dec_bound(x) -> float:
    if isinstance(x, str):
        if x in ("+inf", "inf"):
            return math.inf
        if x == "-inf":
            return -math.inf
        raise InvalidDistribution(f"unrecognized bound encoding {x!r}")
    return float(x)


@dataclass(frozen=True, eq=False)
class TruncGaussianUni:
    """Univariate normal restricted to ``(lower, upper)`` and renormalized.

    Bounds may be ``-inf`` / ``+inf``; both infinite reproduces the parent
    normal exactly.
    """

    mu: float
    sigma2: float
    lower: float = -math.inf
    upper: float = math.inf

    @classmethod
    def check(cls, mu, sigma2, lower=-math.inf, upper=math.inf) -> str | None:
        msg = GaussianUni.check(mu, sigma2)
        if msg is not None:
            return msg
        if math.isnan(lower) or math.isnan(upper):
            return "bounds must not be NaN"
        if not lower < upper:
            return f"lower bound {lower!r} must be < upper bound {upper!r}"
        return None

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        msg = self.check(self.mu, self.sigma2, self.lower, self.upper)
        if msg is not None:
            raise InvalidDistribution(msg)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def parent(self) -> GaussianUni:
        """The untruncated normal with the same location/scale parameters."""
        return GaussianUni(self.mu, self.sigma2)

    def to_dict(self) -> dict:
        return {
            "type": "TruncGaussianUni",
            "mu": self.mu,
            "sigma2": self.sigma2,
            "lower": _enc_bound(self.lower),
            "upper": _enc_bound(self.upper),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TruncGaussianUni":
        return cls(float(d["mu"]), float(d["sigma2"]),
                   _dec_bound(d["lower"]), _dec_bound(d["upper"]))


@dataclass(frozen=True, eq=False)
class TruncGaussianMulti:
    """Multivariate normal restricted to the box ``[lower, upper]``.

    Bound entries may be infinite coordinate-wise.
    """

    mu: np.ndarray
    cov: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def check(cls, mu, cov, lower, upper) -> str | None:
        msg = GaussianMulti.check(mu, cov)
        if msg is not None:
            return msg
        mu = np.asarray(mu, dtype=float)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != mu.shape or upper.shape != mu.shape:
            return "bound vectors must match mu length"
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            return "bounds must not be NaN"
        if not np.all(lower < upper):
            return "each lower bound must be < the matching upper bound"
        return None

    def __post_init__(self):
        msg = self.check(self.mu, self.cov, self.lower, self.upper)
        if msg is not None:
            raise InvalidDistribution(msg)
        for name in ("mu", "cov", "lower", "upper"):
            object.__setattr__(self, name,
                               _freeze(np.asarray(getattr(self, name), dtype=float)))
        # built once, so every pair sees the same object and its memoised terms
        object.__setattr__(self, "_parent", GaussianMulti(self.mu, self.cov))

    @property
    def k(self) -> int:
        return int(self.mu.size)

    def parent(self) -> GaussianMulti:
        """The untruncated multivariate normal with the same parameters.

        The same object on every call, for the lifetime of this instance.
        """
        return self._parent

    def to_dict(self) -> dict:
        return {
            "type": "TruncGaussianMulti",
            "mu": [float(x) for x in self.mu],
            "cov": [[float(x) for x in row] for row in self.cov],
            "lower": [_enc_bound(float(x)) for x in self.lower],
            "upper": [_enc_bound(float(x)) for x in self.upper],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TruncGaussianMulti":
        return cls(
            np.asarray(d["mu"], dtype=float),
            np.asarray(d["cov"], dtype=float),
            np.asarray([_dec_bound(x) for x in d["lower"]], dtype=float),
            np.asarray([_dec_bound(x) for x in d["upper"]], dtype=float),
        )


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

    ``m`` and ``S`` are the precision-weighted mean and combined covariance,
    and ``M`` the nonnegative mean-separation quadratic form.
    """

    l: np.ndarray
    u: np.ndarray
    m: np.ndarray
    S: np.ndarray
    M: float

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        msg = _check_cov(S)
        if msg is not None:
            raise InvalidDistribution(f"S: {msg}")
        if self.M < 0:
            raise InvalidDistribution("M must be >= 0")
        for name in ("l", "u", "m", "S"):
            object.__setattr__(self, name,
                               _freeze(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "M", float(self.M))


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """``T`` observations (rows) by ``N`` variables (columns), all finite.

    Rows are time/observations and columns are variables throughout the
    package; anything stored transposed must be flipped before wrapping.
    """

    values: np.ndarray
    labels: tuple[str, ...] = ()

    @classmethod
    def check(cls, values, labels=()) -> str | None:
        v = np.asarray(values, dtype=float)
        if v.ndim != 2:
            return "values must be a 2-D matrix"
        if v.shape[0] < 1 or v.shape[1] < 1:
            return "matrix must have at least one row and one column"
        if not np.all(np.isfinite(v)):
            return "all entries must be finite"
        if labels and len(labels) != v.shape[1]:
            return "labels length does not match column count"
        return None

    def __post_init__(self):
        msg = self.check(self.values, self.labels)
        if msg is not None:
            raise InvalidDistribution(msg)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", _freeze(v))
        labels = self.labels or tuple(f"c{i}" for i in range(v.shape[1]))
        object.__setattr__(self, "labels", tuple(str(x) for x in labels))

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
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise InvalidDistribution(f"{path}: empty CSV")
        header = tuple(rows[0])
        body = np.asarray([[float(x) for x in row] for row in rows[1:]], dtype=float)
        return cls(body, header)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Labeled pairwise distance table; asymmetric unless flagged otherwise.

    Entries may be ``+inf`` (disjoint supports); the diagonal must vanish.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    symmetric: bool = False
    diag_tol: float = 1e-9

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        g = len(self.labels)
        if v.shape != (g, g):
            raise InvalidDistribution("values must be G x G with G = len(labels)")
        if np.any(np.isnan(v)):
            raise InvalidDistribution("distances must not be NaN")
        if np.any(v < 0):
            raise InvalidDistribution("distances must be >= 0")
        if np.max(np.abs(np.diag(v))) > self.diag_tol:
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
    """Numerical integral value with an error estimate and evaluation count."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.error_estimate >= 0:
            raise InvalidDistribution("error_estimate must be >= 0")


_TYPES = {
    "DiscreteDist": DiscreteDist,
    "GaussianUni": GaussianUni,
    "GaussianMulti": GaussianMulti,
    "TruncGaussianUni": TruncGaussianUni,
    "TruncGaussianMulti": TruncGaussianMulti,
}


def validate(dist) -> str | None:
    """Re-check an existing instance; return the first violation or ``None``.

    Never raises. Instances built through the public constructors always
    come back clean; this is the reporting twin of the constructor checks.
    """
    if isinstance(dist, DiscreteDist):
        return DiscreteDist.check(dist.probs, dist.labels)
    if isinstance(dist, TruncGaussianUni):
        return TruncGaussianUni.check(dist.mu, dist.sigma2, dist.lower, dist.upper)
    if isinstance(dist, GaussianUni):
        return GaussianUni.check(dist.mu, dist.sigma2)
    if isinstance(dist, TruncGaussianMulti):
        return TruncGaussianMulti.check(dist.mu, dist.cov, dist.lower, dist.upper)
    if isinstance(dist, GaussianMulti):
        return GaussianMulti.check(dist.mu, dist.cov)
    if isinstance(dist, SampleMatrix):
        return SampleMatrix.check(dist.values, dist.labels)
    return f"unsupported type {type(dist).__name__}"


def to_json(dist) -> str:
    """Serialize a distribution to JSON (infinities as "-inf"/"+inf")."""
    return json.dumps(dist.to_dict())


def from_json(text: str):
    """Inverse of :func:`to_json`; dispatches on the embedded "type" field."""
    d = json.loads(text)
    name = d.get("type")
    if name not in _TYPES:
        raise InvalidDistribution(f"unknown distribution type {name!r}")
    return _TYPES[name].from_dict(d)
