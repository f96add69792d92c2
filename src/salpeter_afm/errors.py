"""Exception types shared by all solvers in this package."""


class AfmError(Exception):
    """Base class for domain errors raised by this package."""


class UnsupportedCase(AfmError):
    """No analytic expression exists for the requested case."""


class ConvergenceFailure(AfmError):
    """An iteration did not converge: an eigenvalue over the basis ladder
    within its tolerance, or a root search within its iteration limit."""


class NoBoundState(AfmError):
    """The interaction is too weak to bind the system."""


class CollapseDetected(AfmError):
    """The interaction is strong enough to drive the mass to zero or below."""


class DomainError(AfmError):
    """Arguments lie outside the mathematical domain of an operation."""
