"""Shared exception types.

The CLI maps these onto process exit codes, so keep the taxonomy small:
DomainError / ConvergenceError -> 2, OSError -> 3, BoundaryLeakageError -> 4;
tolerance failures are reported by return value rather than by raising.
Whichever exception ends a file-emitting command, the files it already wrote
are removed before the exit.
"""


class DomainError(ValueError):
    """Parameter outside its physical or numerical domain."""


class ConvergenceError(RuntimeError):
    """An adaptive loop hit its refinement cap before reaching tolerance."""


class BoundaryLeakageError(RuntimeError):
    """Field support reached the grid boundary (periodic wrap would corrupt it)."""


class TailLeakageError(DomainError):
    """Spectral coefficients do not decay below the truncation threshold at the grid ends."""
