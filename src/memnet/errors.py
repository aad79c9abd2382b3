"""Exception types shared across the package.

The CLI maps these onto exit codes: ParameterError -> 2, data-shaped
errors -> 3, ConvergenceError and every other MemnetError (InvariantError
among them) -> 4.
"""


class MemnetError(Exception):
    pass


class ParameterError(MemnetError, ValueError):
    """Invalid argument values (bad dimensions, epsilon out of range, ...)."""


class DataError(MemnetError, ValueError):
    """Dataset violates a precondition (zero row, wrong label kind, ...)."""


class DegenerateDataError(DataError):
    """Data not in general position where a construction requires it."""


class RankDeficiencyError(DataError):
    """Candidate feature matrix never reached full rank."""


class ConvergenceError(MemnetError, RuntimeError):
    """Iterative fit stopped before reaching the target error.

    Carries the trace accumulated so far in ``trace`` when available.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class SamplerFailureError(MemnetError, RuntimeError):
    """All candidates of a random sampler were rejected."""


class QuadratureResolutionError(MemnetError, RuntimeError):
    """A quadrature-based quantity could not be resolved."""


class InvariantError(MemnetError, RuntimeError):
    """An internal guarantee of a construction failed to hold."""
