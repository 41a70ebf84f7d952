"""Exception types raised by the library."""

__all__ = [
    "OpdiscError", "NonFinite", "NonSquare", "NonHermitian", "DimensionMismatch", "CompletenessViolation",
    "InvalidProbabilityVector", "InvalidState", "InvalidPovm", "FamilyMismatch", "NotOrthogonal",
    "UnsupportedDimension", "OptimizerFailure",
]


class OpdiscError(Exception):
    """Base class for every error this package raises on bad input or failure."""


class NonFinite(OpdiscError, ValueError):
    """An input is not the finite numbers asked for; the message names it.

    NaN, an infinity, no number or list at all, or a list where one number belongs.
    """


class NonHermitian(OpdiscError):
    """A matrix that must be Hermitian deviates beyond tolerance."""


class DimensionMismatch(OpdiscError):
    """Operands have incompatible dimensions."""


class NonSquare(DimensionMismatch):
    """An input that must be a square matrix is not: a scalar, a vector, a 0 x 0 or a d1 x d2 (d1 != d2) matrix."""


class CompletenessViolation(OpdiscError):
    """Kraus operators do not sum to the identity; message reports the deviation."""


class InvalidProbabilityVector(OpdiscError):
    """Entries are negative or do not sum to 1 within tolerance."""


class InvalidState(OpdiscError):
    """Not a density matrix (or not a unit-norm input operator) within tolerance."""


class InvalidPovm(OpdiscError):
    """Two-outcome POVM elements are not positive or do not sum to the identity."""


class FamilyMismatch(OpdiscError):
    """Two random-unitary channels do not share the same unitary list."""


class NotOrthogonal(OpdiscError):
    """A unitary family required to be orthogonal is not."""


class UnsupportedDimension(OpdiscError):
    """The requested dimension is outside the supported range."""


class OptimizerFailure(OpdiscError):
    """No optimizer start produced a usable result."""
