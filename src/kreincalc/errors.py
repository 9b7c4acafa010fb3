"""Exception hierarchy.

Every failure mode a caller is expected to branch on gets its own class;
everything derives from :class:`KreinCalcError` so ``except KreinCalcError``
catches any library-raised condition.
"""


class KreinCalcError(Exception):
    """Base class for all library errors."""


class ShapeMismatchError(KreinCalcError):
    """A jet's shape does not match its point, or its entries do not fit its shape."""


class NotInvertibleError(KreinCalcError):
    """A jet, function value, or operator has no inverse at working tolerance."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DegenerateInputError(KreinCalcError):
    """Input is degenerate (zero polynomial, empty data)."""


class ConditioningError(KreinCalcError):
    """A linear system is singular or too ill-conditioned to trust."""


class ValidationError(KreinCalcError):
    """An instance or file violates a parse-time invariant."""


class NotNormalError(ValidationError):
    """Operator does not commute with its adjoint at working tolerance."""


class NotPsdError(KreinCalcError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class ConstructionError(KreinCalcError):
    """A construction finished but its invariants do not hold.

    Carries the residual report so callers can see which identity failed.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or []


class NotInCommutantError(KreinCalcError):
    """Argument is outside the commutant on which a transfer map is defined."""


class DomainMismatchError(KreinCalcError):
    """Function operands live over different critical sets, or a value is missing."""


class NotInIdealError(KreinCalcError):
    """Residual function fails the vanishing-projection test for the ideal."""


class BoundaryError(KreinCalcError):
    """Region boundary passes too close to a critical spectral point."""


class SearchFailedError(KreinCalcError):
    """Bounded search for a definitizing polynomial was exhausted."""
