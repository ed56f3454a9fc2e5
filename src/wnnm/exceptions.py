"""Exception hierarchy shared by all solver modules."""


class WnnmError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(WnnmError):
    """Malformed or inconsistent input (shape mismatch, NaN/Inf, text, negative
    weight), or an unmet documented precondition of the called operation."""


class NumericalFailureError(WnnmError):
    """An underlying numerical routine failed to produce a usable result."""


class ConvergenceError(WnnmError):
    """Iterative solver exhausted its iteration budget.

    Carries the last iterate and its objective so callers can inspect how
    close the run got.
    """

    def __init__(self, message, last_iterate, objective, iterations):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.objective = objective
        self.iterations = iterations
