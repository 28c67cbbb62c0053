"""Error types shared across the package.

The command-line driver maps these onto exit codes: configuration errors
(plain ``ValueError``) and files that cannot be opened (``OSError``) exit 1,
resource and convergence failures exit 2, and so does running out of memory
(the built-in ``MemoryError``).
"""

#: Largest single allocation, checked before it is made.  The one Krylov
#: basis, ``spectral._top_state``'s, holds 200 vectors as two 100-row parity
#: blocks: 1.6 GB for a vector on a ball at the 2M-word cap, which it admits,
#: and d_A times that for a seesaw state of d_A x D, refused above the budget.
MEMORY_BUDGET = 4 * 2**30


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


def require_bytes(nbytes: int, what: str) -> None:
    """Raise ``CapacityError`` if allocating ``nbytes`` for ``what`` is over budget."""
    if nbytes > MEMORY_BUDGET:
        raise CapacityError(
            f"{what} needs {nbytes / 2**30:.1f} GiB, "
            f"over the {MEMORY_BUDGET >> 30} GiB budget"
        )


class BufferExhaustedError(RuntimeError):
    """The truncation buffer is too small for the requested exact evolution."""
