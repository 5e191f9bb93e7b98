"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause without masking
unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SparseFormatError(ReproError):
    """A sparse matrix or pattern violates its structural invariants."""


class ShapeError(ReproError):
    """Operands have incompatible shapes."""


class PartitionError(ReproError):
    """A row partition or graph partition request is invalid."""


class CommError(ReproError):
    """Misuse of the simulated MPI runtime (bad rank, tag, deadlock...)."""


class RankFailedError(CommError):
    """A rank failed permanently under an installed fault plan.

    Raised by the halo-update / message-passing layers when a
    :class:`repro.resilience.RankFailure` fault activates.  Carries the
    failed rank so degraded-mode recovery
    (:func:`repro.resilience.solve_with_failover`) can re-partition its
    rows onto the survivors.

    Attributes
    ----------
    rank:
        The rank declared failed.
    """

    def __init__(self, rank: int, message: str | None = None):
        super().__init__(message or f"rank {rank} failed permanently (injected fault)")
        self.rank = int(rank)


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed (bad probability, rank, schema)."""


class ConvergenceError(ReproError):
    """An iterative solver failed to reach its tolerance within max iterations.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual_norm:
        Final residual 2-norm when the solver stopped.
    """

    def __init__(self, message: str, iterations: int, residual_norm: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm


class NotSPDError(ReproError):
    """The matrix is not symmetric positive definite where SPD is required."""
