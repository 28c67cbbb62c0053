"""Error types shared across the package.

The command-line driver maps these onto exit codes: configuration errors
(plain ``ValueError``) exit 1, resource and convergence failures exit 2, and
so does running out of memory (the built-in ``MemoryError``).
"""


class CapacityError(RuntimeError):
    """A requested computation exceeds a configured size cap."""


class ConvergenceError(RuntimeError):
    """An iterative estimator exhausted its iteration budget.

    Carries the last observed residual so callers can report how far the
    iteration was from the requested tolerance.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class BufferExhaustedError(RuntimeError):
    """The truncation buffer is too small for the requested exact evolution."""
