"""Exception types shared across the package."""


class CarlemanLabError(Exception):
    """Base class for all package errors."""


class ValidationError(CarlemanLabError):
    """Raised when inputs violate a documented precondition.

    The message names the violated constraint and, where it makes sense,
    the offending node or value.
    """


class SolverError(CarlemanLabError):
    """Raised when a solve fails: the band Cholesky factorization, or a solution
    whose relative normal-equation residual is above 1e-8 or not finite."""
