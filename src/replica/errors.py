"""Exception types shared by all replica modules."""


class ReplicaError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ReplicaError, ValueError):
    """An argument outside the mathematical domain of the operation (a series z >= 1 too)."""


class UnsupportedParameterError(ReplicaError, ValueError):
    """A parameter outside the supported set: a series parameter, exponent, root or
    algorithm order, w, an unknown constant id or a run of another constant's recipe."""


class SlowConvergenceError(ReplicaError):
    """Series argument too close to 1 for certified truncation in reasonable time."""


class NonConvergenceError(ReplicaError):
    """An iteration hit its step budget before meeting the stopping rule.

    Carries the partial trace so callers can inspect how far the run got.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []
