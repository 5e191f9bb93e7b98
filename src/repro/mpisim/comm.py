"""Modeled time of the simulated MPI runtime.

Every rank of an SPMD solve has a clock, which only moves when a receive
completes (``max(own, arrival)``) or the rank charges compute, a stall, a
delay or a retry back-off.  :class:`ClockModel` holds the parameters; the
ledger of :mod:`repro.dist.spmd` keeps the clocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import CommError
from repro.mpisim import collectives

__all__ = ["ClockModel"]


@dataclass(frozen=True)
class ClockModel:
    """Modeled-time parameters of one SPMD run (all in seconds, default 0).

    A message sent when its sender's clock reads ``t`` becomes matchable at
    ``t + alpha + beta * nbytes``; a compute kernel of ``flops`` operations
    streaming ``nbytes`` costs ``kernel_seconds(flops, nbytes)``.  The
    ``*_seconds`` methods are the one price list of the machine: the SPMD
    solvers run on them and
    :class:`repro.perfmodel.CostModel` predicts with them.  The caller
    supplies the numbers (:meth:`repro.perfmodel.MachineSpec.clock_model`
    derives them from a machine); with the all-zero default every clock
    stays at 0 and only the message order is simulated.
    """

    #: Link latency per message (α).
    alpha: float = 0.0
    #: Link time per payload byte (β, the inverse bandwidth).
    beta: float = 0.0
    #: Compute time per floating-point operation.
    flop: float = 0.0
    #: Compute time per byte streamed from memory.
    byte: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "flop", "byte"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value >= 0):
                raise CommError(
                    f"ClockModel.{name} must be a finite number >= 0, got {value!r}"
                )

    def kernel_seconds(self, flops, nbytes):
        """Roofline time of one rank-local kernel: the slower of its
        arithmetic and its memory stream.  Elementwise over arrays of
        counts (every rank's kernel at once); a float for two numbers.
        Integer counts below 2**53 convert exactly, so each element is
        bitwise the scalar price."""
        seconds = np.maximum(np.multiply(flops, self.flop), np.multiply(nbytes, self.byte))
        return seconds if seconds.ndim else float(seconds)

    def message_seconds(self, nbytes: float) -> float:
        """Link time of one message, from its send until it is matchable."""
        return self.alpha + self.beta * nbytes

    def exchange_seconds(self, largest: np.ndarray) -> np.ndarray:
        """Every rank's wait in a neighbour exchange whose largest incoming
        message has ``largest`` bytes (0: it receives none): all sends leave
        together, so that message ends it."""
        return np.where(largest > 0, self.message_seconds(largest), 0.0)

    def allreduce_seconds(self, size: int, nbytes: float) -> float:
        """One allreduce of ``nbytes`` over ``size`` ranks."""
        return collectives.allreduce_rounds(size) * self.message_seconds(nbytes)
