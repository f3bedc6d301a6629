"""Exception types shared by all replica modules."""


class ReplicaError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ReplicaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedExponentError(ReplicaError, ValueError):
    """A rational exponent p/q whose denominator is not in ``precision.SUPPORTED_DENOMINATORS``."""


class UnsupportedParameterError(ReplicaError, ValueError):
    """A series or algorithm parameter outside the supported set."""


class UnknownConstantError(UnsupportedParameterError):
    """A constant identifier that is not registered."""


class DivergenceError(DomainError):
    """Series argument z >= 1: the sum does not converge."""


class SlowConvergenceError(ReplicaError):
    """Series argument too close to 1 for certified truncation in reasonable time."""


class PrecisionInsufficientError(ReplicaError):
    """The working precision cannot distinguish an input from a singular value."""


class InsufficientTraceError(ReplicaError, ValueError):
    """Too few usable error samples to measure convergence orders."""


class NonConvergenceError(ReplicaError):
    """An iteration hit its step budget before meeting the stopping rule.

    Carries the partial trace so callers can inspect how far the run got.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []
