"""Communicator interface of the simulated MPI runtime.

Mirrors the mpi4py surface the paper's solver would use (lower-case
object-based methods): ``send``/``recv``, ``sendrecv`` and the collectives
from :mod:`repro.mpisim.collectives`.  Rank programs are coroutines:
everything that can block — ``recv``, ``sendrecv``, every collective — must
be awaited, while ``send``/``isend``/``irecv`` are plain calls (sends are
buffered and never block).  Implementations:

* the endpoint :func:`repro.mpisim.run_spmd` hands each rank (in
  :mod:`repro.mpisim.engine`) — real message passing between rank
  coroutines on one cooperative scheduler;
* :class:`SelfComm` — the trivial single-process communicator, so SPMD code
  also runs with ``size == 1`` without special-casing.

Time is *modeled*: every communicator carries its rank's clock
(:meth:`Comm.now`), which only moves when a receive completes
(``max(own, arrival)``) or the program charges compute with
:meth:`Comm.advance`.  :class:`ClockModel` holds the parameters.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import CommError
from repro.instrument import get_tracer
from repro.mpisim import collectives
from repro.mpisim.tracker import CommTracker

__all__ = [
    "Comm", "SelfComm", "ClockModel", "ReduceOp", "SUM", "MAX", "MIN", "ANY_TAG",
]

ANY_TAG = -1


@dataclass(frozen=True)
class ClockModel:
    """Modeled-time parameters of one SPMD run (all in seconds, default 0).

    A message sent when its sender's clock reads ``t`` becomes matchable at
    ``t + alpha + beta * nbytes``; a rank program charges a compute kernel
    of ``flops`` operations streaming ``nbytes`` with
    ``comm.advance(comm.clock.kernel_seconds(flops, nbytes))``.  The
    ``*_seconds`` methods are the one price list of the machine: the engine
    and the rank programs run on them and
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

    def kernel_seconds(self, flops: float, nbytes: float) -> float:
        """Roofline time of one rank-local kernel: the slower of its
        arithmetic and its memory stream."""
        return max(flops * self.flop, nbytes * self.byte)

    def message_seconds(self, nbytes: float) -> float:
        """Link time of one message, from its send until it is matchable."""
        return self.alpha + self.beta * nbytes

    def exchange_seconds(self, incoming) -> float:
        """A rank's wait in a neighbour exchange receiving messages of
        ``incoming`` bytes: all sends leave together, so the largest
        message ends it (0 with none)."""
        return self.message_seconds(max(incoming)) if len(incoming) else 0.0

    def allreduce_seconds(self, size: int, nbytes: float) -> float:
        """One :meth:`Comm.allreduce` of ``nbytes`` over ``size`` ranks."""
        return collectives.allreduce_rounds(size) * self.message_seconds(nbytes)


class ReduceOp:
    """A named, associative reduction operator for collectives."""

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]):
        self.name = name
        self.fn = fn

    def __call__(self, a, b):
        return self.fn(a, b)

    def __repr__(self) -> str:
        return f"ReduceOp({self.name})"


SUM = ReduceOp("sum", lambda a, b: a + b)
MAX = ReduceOp("max", lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b))
MIN = ReduceOp("min", lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b))


class Comm:
    """Abstract communicator.

    Subclasses provide ``rank``, ``size``, the clock and the point-to-point
    primitives; every collective is implemented generically on top of
    ``send``/``recv``/``sendrecv`` in :mod:`repro.mpisim.collectives`, so
    the communication tracker observes the genuine message pattern of each
    algorithm.  The SPMD endpoint runs ``allreduce`` natively and books the
    same messages (:mod:`repro.mpisim.engine`).
    """

    rank: int
    size: int
    tracker: CommTracker | None
    #: The run's :class:`ClockModel` (rank programs read the compute rates).
    clock: ClockModel

    #: This rank's bounded telemetry endpoint
    #: (:class:`repro.observe.stream.RankTelemetry`), installed by
    #: :func:`repro.mpisim.run_spmd` when a ``telemetry=`` config is passed.
    #: Duck-typed — the transport only calls ``observe_message`` /
    #: ``observe_wait`` / ``observe`` on it.
    telemetry = None

    #: True while inside :meth:`telemetry_channel`: traffic is booked as
    #: telemetry (``CommTracker.record_telemetry``) instead of solver p2p,
    #: and is itself never observed into the telemetry histograms.
    _telemetry_mode = False

    #: The tracer of the run this endpoint belongs to (``None``: look the
    #: active one up per call).
    _tracer = None

    # modeled time ------------------------------------------------------
    def now(self) -> float:
        """This rank's modeled clock, in seconds since the launch."""
        raise NotImplementedError

    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` of modeled time to this rank (compute, a
        stall, a retry back-off); never yields to other ranks."""
        raise NotImplementedError

    # point-to-point ----------------------------------------------------
    def send(self, obj, dest: int, tag: int = 0) -> None:
        """Buffered send of ``obj`` to ``dest``; a plain call, never blocks."""
        raise NotImplementedError

    async def recv(self, source: int, tag: int = ANY_TAG, *, timeout: float | None = None):
        """Receive from ``source``; ``timeout`` is in modeled seconds."""
        raise NotImplementedError

    async def sendrecv(self, obj, dest: int, source: int, *, tag: int = 0):
        """Exchange with two (possibly different) peers without deadlock."""
        raise NotImplementedError

    def isend(self, obj, dest: int, tag: int = 0):
        """Nonblocking send; returns a completed request."""
        raise NotImplementedError

    def irecv(self, source: int, tag: int = ANY_TAG):
        """Nonblocking receive; ``await`` the request's ``wait``/``test``."""
        raise NotImplementedError

    def halo_plan(self, schedule):
        """A native exchange plan of a halo ``schedule`` (the SPMD endpoint's,
        :mod:`repro.mpisim.engine`), or ``None``: exchange point to point."""
        return None

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise CommError(f"peer rank {peer} out of range for size {self.size}")

    @contextmanager
    def telemetry_channel(self):
        """Book traffic sent inside this context as in-band telemetry.

        The in-band aggregation of :mod:`repro.observe.stream` wraps its
        reduction-tree hops in this context so the transport routes their
        accounting to :meth:`CommTracker.record_telemetry` — keeping the
        solver's audited ``p2p_*`` schedule byte-identical with telemetry
        on or off.
        """
        previous = self._telemetry_mode
        self._telemetry_mode = True
        try:
            yield self
        finally:
            self._telemetry_mode = previous

    # collectives (generic algorithms over send/recv) -------------------
    def _span(self, name: str):
        tracer = self._tracer if self._tracer is not None else get_tracer()
        return tracer.span(name, rank=self.rank)

    async def barrier(self) -> None:
        """Block until every rank arrives."""
        with self._span("mpisim.barrier"):
            await collectives.barrier(self)

    async def bcast(self, obj, root: int = 0):
        """Broadcast ``obj`` from ``root`` to every rank."""
        with self._span("mpisim.bcast"):
            return await collectives.bcast(self, obj, root)

    async def reduce(self, value, op: ReduceOp = SUM, root: int = 0):
        """Reduce to ``root``; other ranks receive None."""
        with self._span("mpisim.reduce"):
            return await collectives.reduce(self, value, op, root)

    async def allreduce(self, value, op: ReduceOp = SUM):
        """Reduce and deliver the result on every rank.

        When a telemetry endpoint is installed, the modeled duration of the
        whole recursive-doubling exchange goes into its ``reduction``
        histogram — the simulated counterpart of the α–β model's
        ``reductions`` term.
        """
        telemetry = self.telemetry if not self._telemetry_mode else None
        start = self.now() if telemetry is not None else 0.0
        try:
            with self._span("mpisim.allreduce"):
                return await self._allreduce(value, op)
        finally:
            if telemetry is not None:
                end = self.now()
                telemetry.observe("reduction", end - start, end=end)

    def _allreduce(self, value, op: ReduceOp):
        """The algorithm behind :meth:`allreduce` (a coroutine to await):
        recursive doubling over point-to-point messages here; the SPMD
        endpoint runs it natively on its scheduler."""
        return collectives.allreduce(self, value, op)

    async def gather(self, value, root: int = 0):
        """Collect one value per rank at ``root``."""
        with self._span("mpisim.gather"):
            return await collectives.gather(self, value, root)

    async def allgather(self, value):
        """Collect one value per rank, everywhere."""
        with self._span("mpisim.allgather"):
            return await collectives.allgather(self, value)

    async def scatter(self, values, root: int = 0):
        """Distribute one value per rank from ``root``."""
        with self._span("mpisim.scatter"):
            return await collectives.scatter(self, values, root)

    async def alltoall(self, values):
        """Personalised exchange: ``values[j]`` goes to rank ``j``."""
        with self._span("mpisim.alltoall"):
            return await collectives.alltoall(self, values)

    async def scan(self, value, op: ReduceOp = SUM):
        """Inclusive prefix reduction."""
        with self._span("mpisim.scan"):
            return await collectives.scan(self, value, op)

    async def reduce_scatter(self, values, op: ReduceOp = SUM):
        """Element-wise reduce, scatter slot ``r`` to rank ``r``."""
        with self._span("mpisim.reduce_scatter"):
            return await collectives.reduce_scatter(self, values, op)


class SelfComm(Comm):
    """The ``size == 1`` communicator: all operations are local no-ops.

    Its coroutines never park, so one ``coro.send(None)`` runs a rank
    program on it to completion.
    """

    def __init__(self, tracker: CommTracker | None = None,
                 clock: ClockModel | None = None):
        self.rank = 0
        self.size = 1
        self.tracker = tracker
        self.clock = clock if clock is not None else ClockModel()
        self._now = 0.0

    def now(self) -> float:
        """The modeled clock: the sum of what was charged so far."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` of modeled time."""
        self._now += seconds

    def send(self, obj, dest: int, tag: int = 0) -> None:
        """SelfComm has no peers; always raises."""
        raise CommError("SelfComm has no peers to send to")

    async def recv(self, source: int, tag: int = ANY_TAG, *, timeout: float | None = None):
        """SelfComm has no peers; always raises."""
        raise CommError("SelfComm has no peers to receive from")

    async def sendrecv(self, obj, dest: int, source: int, *, tag: int = 0):
        """Self-exchange is the identity; peers are rejected."""
        if dest != 0 or source != 0:
            raise CommError("SelfComm has no peers")
        return obj
