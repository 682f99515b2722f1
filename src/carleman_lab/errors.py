"""Exception types shared across the package, and the rule that shortens a value an error echoes."""

import reprlib


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


_SHOWN_CHARS = 120
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 1


def shown(value) -> str:
    """repr(value), or past _SHOWN_CHARS characters reprlib's short form of it: nested
    containers as [...] or {...}, at most six items, atoms cut to 30 characters."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else _SHORT.repr(value)


def clipped(text: str) -> str:
    """``text`` itself, or by ``shown``'s rule the short form of a long one, unquoted."""
    return text if len(text) <= _SHOWN_CHARS else _SHORT.repr(text)[1:-1]
