"""Exception hierarchy shared across the package."""


class OverallPriorError(Exception):
    """Base class for all package-specific errors."""


class DomainError(OverallPriorError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(OverallPriorError, RuntimeError):
    """A numerical routine failed to reach the requested tolerance."""


class PreconditionError(OverallPriorError, ValueError):
    """A documented precondition of an operation is not met."""


class BoundaryModeError(PreconditionError):
    """The requested posterior mode sits at the a=0 boundary (r0 <= 1)."""


class SingularityError(DomainError):
    """A density was evaluated at a point where it is singular."""


class DegenerateDataError(PreconditionError):
    """The data admit only a degenerate posterior (e.g. zero variance)."""
