"""Exception hierarchy shared by all solver modules."""


class WnnmError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(WnnmError):
    """Malformed or inconsistent input (shape mismatch, NaN/Inf, text, negative
    weight), or an unmet documented precondition of the called operation."""


class NumericalFailureError(WnnmError):
    """An underlying numerical routine failed to produce a usable result."""

