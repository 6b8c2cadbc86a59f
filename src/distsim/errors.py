"""Exception hierarchy shared by all distsim modules.

Every error raised by the public API derives from :class:`DistsimError`,
so callers can catch one base class. Input-contract violations also derive
from ``ValueError`` where that matches common expectations.
"""

__all__ = [
    "DistsimError",
    "InvalidDistribution",
    "DimensionMismatch",
    "DomainError",
    "NotPositiveDefinite",
    "NonConvergence",
    "EmptySample",
    "NotADensity",
    "DegenerateData",
    "GridTooCoarse",
    "MomentMatrixNotPD",
    "DensityUnderflow",
    "DensityOverflow",
    "BoundaryConditionViolated",
    "MomentMismatch",
    "NoSolution",
    "ParseError",
    "EmptyAfterCleaning",
]


class DistsimError(Exception):
    """Base class for all distsim errors."""


class InvalidDistribution(DistsimError, ValueError):
    """A distribution type invariant is violated (constructor rejection)."""


class DimensionMismatch(DistsimError, ValueError):
    """Two inputs that must share a dimension/category count do not."""


class DomainError(DistsimError, ValueError):
    """A scalar argument lies outside its mathematically valid domain."""


class NotPositiveDefinite(DistsimError, ValueError):
    """A covariance matrix is not (numerically) positive definite."""


class NonConvergence(DistsimError, ArithmeticError):
    """A numerical routine exhausted its budget before reaching tolerance."""


class EmptySample(DistsimError, ValueError):
    """A sample-based estimator received zero total counts/observations."""


class NotADensity(DistsimError, ValueError):
    """A user-supplied function does not integrate to 1 on its support."""


class DegenerateData(DistsimError, ValueError):
    """Data has no usable variation (e.g. all columns constant)."""


class GridTooCoarse(DistsimError, ArithmeticError):
    """A grid-based density lost more probability mass than allowed."""


class MomentMatrixNotPD(DistsimError, ValueError):
    """A moment sequence has no representing distribution (Hankel not PD)."""


class DensityUnderflow(DistsimError, ArithmeticError):
    """A density value is too close to zero to divide by safely."""


class DensityOverflow(DistsimError, ArithmeticError):
    """A density value exceeds the float range."""


class BoundaryConditionViolated(DistsimError, ArithmeticError):
    """A required vanishing-at-the-boundary condition fails numerically."""


class MomentMismatch(DistsimError, ValueError):
    """A supplied moment (e.g. E[h(Y)]) disagrees with the one implied."""


class NoSolution(DistsimError, ArithmeticError):
    """A parameter solve failed to find a root within its search region."""


class ParseError(DistsimError, ValueError):
    """An input file could not be parsed; message names the location."""


class EmptyAfterCleaning(DistsimError, ValueError):
    """All data columns were dropped during cleaning."""
