"""Checkpoint-restart for the Krylov solvers.

Bit-flips that slip past the transport land in the solver's recurrence,
where CG's short recurrences amplify them: the recurrence residual
diverges from the true residual and the solve stalls or explodes.  The
recovery path here is the classic lightweight in-memory scheme:

* every ``checkpoint_interval`` iterations the solver snapshots its
  recurrence state — ``(x, r, d, rz)`` plus the history lengths — via
  :class:`CheckpointManager.save`.  A snapshot becomes the rollback target
  only once the iteration started from it has passed the divergence
  checks (:meth:`CheckpointManager.confirm`): a fault in the tail of the
  previous iteration (``z = M r``, ``rᵀz``, the new ``d``) shows only
  there, and a target holding it would fail every replay.  The first
  snapshot is the target at once; the solver restarts it from its exact
  ``x`` and ``r`` rather than trusting its ``d`` and ``rz``;
* a divergence trigger (:meth:`CheckpointManager.should_rollback`:
  non-finite residual, residual exploding past ``divergence_factor`` times
  the checkpointed residual, or a ``dᵀAd ≤ 0`` breakdown) restores the
  snapshot and the solver replays from it;
* replay is deterministic: the snapshot restores the exact pre-fault
  state, and the fault injector's sequence numbers have advanced, so the
  replayed iterations compute what a fault-free run would have computed —
  the final residual matches the clean run bitwise.

``pcg`` activates all of this only when given a :class:`ResilienceConfig`
(``pcg(..., resilience=ResilienceConfig())``); the default solver path
does not construct, check or import anything here, keeping the no-alloc
and bench-regression gates at zero overhead.

Emitted observability: ``pcg.checkpoints`` / ``pcg.rollbacks`` counters
and ``resilience.checkpoint`` / ``resilience.rollback`` tracer events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError
from repro.instrument import get_metrics, get_tracer

__all__ = ["ResilienceConfig", "Checkpoint", "CheckpointManager"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the solver checkpoint-restart path.

    Attributes
    ----------
    checkpoint_interval:
        Iterations between snapshots (iteration 0 is always snapshotted,
        so a rollback target exists from the first iteration).
    divergence_factor:
        Roll back when the recurrence residual exceeds this factor times
        the residual at the last checkpoint.
    max_rollbacks:
        Give up (raise :class:`~repro.errors.ConvergenceError`) after this
        many rollbacks to one checkpoint — persistent divergence is a real
        breakdown, not a transient fault.  The count restarts when a newer
        checkpoint is confirmed: a solve that recovered and made progress
        has not diverged persistently, however many transient faults a
        long solve meets.
    """

    checkpoint_interval: int = 10
    divergence_factor: float = 1e3
    max_rollbacks: int = 4


@dataclass
class Checkpoint:
    """One saved recurrence state (deep copies, detached from workspaces)."""

    iteration: int
    residual: float
    rz: float
    x_parts: list[np.ndarray]
    r_parts: list[np.ndarray]
    d_parts: list[np.ndarray]
    history_len: int
    coeff_len: int


class CheckpointManager:
    """Snapshot/rollback driver owned by one resilient solve.

    The solver calls :meth:`due`/:meth:`save` at iteration boundaries and
    :meth:`should_rollback` after each residual update;
    :meth:`rollback` hands back the :class:`Checkpoint` to restore (the
    solver copies the saved arrays back into its — possibly
    workspace-backed — vectors with :meth:`restore_into`).
    """

    def __init__(self, config: ResilienceConfig):
        self.config = config
        self.checkpoint: Checkpoint | None = None
        #: the last snapshot, until :meth:`confirm` makes it the checkpoint
        self.pending: Checkpoint | None = None
        self.rollbacks = 0
        #: rollbacks to the current checkpoint (the budgeted count)
        self.rollbacks_here = 0

    def due(self, iteration: int) -> bool:
        """Whether a snapshot should be taken before this iteration."""
        interval = max(self.config.checkpoint_interval, 1)
        return iteration % interval == 0

    def save(self, iteration: int, residual: float, rz: float, x, r, d) -> None:
        """Snapshot the recurrence state entering ``iteration`` (the
        rollback target at once if it is the first, else once confirmed)."""
        snapshot = Checkpoint(
            iteration=iteration,
            residual=float(residual),
            rz=float(rz),
            x_parts=[a.copy() for a in x.parts],
            r_parts=[a.copy() for a in r.parts],
            d_parts=[a.copy() for a in d.parts],
            history_len=iteration + 1,
            coeff_len=iteration,
        )
        if self.checkpoint is None:
            self.checkpoint = snapshot
        else:
            self.pending = snapshot
        get_metrics().counter("pcg.checkpoints").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "resilience.checkpoint", index=iteration, residual=float(residual)
            )

    def confirm(self) -> None:
        """The iteration started from the pending snapshot passed the
        divergence checks: make it the rollback target."""
        if self.pending is not None:
            if self.pending.iteration > self.checkpoint.iteration:
                self.rollbacks_here = 0  # progress
            self.checkpoint, self.pending = self.pending, None

    def should_rollback(self, residual: float) -> bool:
        """Divergence trigger: non-finite or exploded recurrence residual."""
        if self.checkpoint is None:
            return False
        if not np.isfinite(residual):
            return True
        return residual > self.config.divergence_factor * max(
            self.checkpoint.residual, np.finfo(np.float64).tiny
        )

    def rollback(self, cause: str) -> Checkpoint:
        """Account one rollback and return the checkpoint to restore.

        Raises :class:`~repro.errors.ConvergenceError` when the rollback
        budget is exhausted or no checkpoint was ever taken.
        """
        ckpt = self.checkpoint
        self.pending = None
        if ckpt is None:
            raise ConvergenceError(
                "divergence detected before any checkpoint was taken",
                0,
                float("nan"),
            )
        self.rollbacks += 1
        self.rollbacks_here += 1
        get_metrics().counter("pcg.rollbacks").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "resilience.rollback",
                to_iteration=ckpt.iteration,
                cause=cause,
                rollbacks=self.rollbacks,
            )
        if self.rollbacks_here > self.config.max_rollbacks:
            raise ConvergenceError(
                f"solver rolled back {self.rollbacks_here} times to iteration "
                f"{ckpt.iteration} (cause: {cause}) — persistent divergence, "
                "not a transient fault",
                ckpt.iteration,
                ckpt.residual,
            )
        return ckpt

    @staticmethod
    def restore_into(saved_parts: list[np.ndarray], vec) -> None:
        """Copy a snapshot's arrays back into a (workspace-backed) vector."""
        for dst, src in zip(vec.parts, saved_parts):
            np.copyto(dst, src)
