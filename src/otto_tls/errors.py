"""The package's production errors; the matrix role error is in complex2."""


class OttoError(Exception):
    """Base class for all package errors."""


class DomainError(OttoError, ValueError):
    """An argument fell outside its valid domain."""


class ConvergenceError(OttoError):
    """xi did not settle within MAX_STEPS steps; carries the best estimate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
