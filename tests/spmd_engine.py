"""The per-message SPMD engine: rank coroutines on one thread, on a modeled
clock — the clocked executor's oracle.

Every ``spmd_cg`` / ``spmd_pipelined_pcg`` / ``spmd_halo_update`` run, with
or without a fault plan, takes the clocked executor of
:mod:`repro.dist.spmd`, which computes every rank's clock, traffic,
telemetry, spans and fault verdicts for all ranks at once.  This engine
runs the rank programs it replaced (:mod:`rank_programs`) one coroutine per
rank, every halo value and partial sum a message, and the tests hold the
executor to what it computes.

:func:`run_spmd` turns a rank program — an ``async def`` taking a
:class:`Comm` — into one coroutine per rank and drives them all on the
calling thread with a cooperative scheduler:

* a FIFO **ready queue**; a rank runs until it finishes or parks in a
  receive that nothing in its mailbox satisfies, recording the
  ``(source, tag)`` it waits on, and the delivery that matches re-queues
  it.  No threads, locks or wall-clock deadlines: the interleaving, every
  result, every tracker snapshot and every final clock are a pure function
  of the program and the rank count;
* a **modeled clock** per rank (:meth:`Comm.now`): a message becomes
  matchable at sender-clock + α + β·bytes (:class:`~repro.mpisim.ClockModel`),
  a completed receive sets the receiver's clock to ``max(own, arrival)``,
  and :meth:`Comm.advance` charges compute, fault-injection stalls, delays
  and retry back-off;
* **exact failure**: "nothing runnable, not everyone finished" is a
  deadlock and raises :class:`~repro.errors.CommError` at once, naming what
  each blocked rank waits on (allreduce tags 1000004 and up, halo 7000); a
  rank that raises closes every other coroutine (open spans unwind) and
  re-raises as ``CommError("rank r failed: …")`` immediately.

``send`` is *buffered* (eager-mode MPI): it enqueues and returns, so the
pairwise exchange patterns of the allreduce and the halo updates cannot
deadlock on matched sends.  Messages between one pair of ranks never
overtake each other, and a receive always names its source, so which
message a receive matches does not depend on the clock — the clock only
says *when*.  NumPy payloads are copied on send so a rank mutating its
buffer after the call cannot corrupt data in flight.

How to write a rank program
---------------------------
A rank program is a coroutine: all ranks run interleaved on one thread and
give it up only where they ``await``::

    async def prog(comm, x):
        req = comm.irecv((comm.rank - 1) % comm.size)        # plain: posts, never blocks
        comm.send(x[comm.rank], (comm.rank + 1) % comm.size)  # plain: sends are buffered
        comm.advance(comm.clock.kernel_seconds(flops=2e3, nbytes=16e3))  # charge compute
        left = await req.wait()                               # can block: await
        return await comm.allreduce(float(left)), comm.now()  # the allreduce blocks too

    results = run_spmd(prog, 8, x, clock=SKYLAKE.clock_model())

* **Must be awaited**: ``recv``, ``Request.wait``, ``allreduce``, and any
  helper of your own that does one of these (make it ``async def`` too;
  :func:`rank_programs.halo_exchange_finish` is one).
* **Must not be awaited** (plain calls): ``send``, ``irecv``,
  ``comm.now()``, ``comm.advance(seconds)``, ``tracer.span(...)``,
  :func:`rank_programs.halo_exchange_start`.  A plain ``with`` block may
  contain awaits.
* Everything a rank program exchanges is a point-to-point message: the
  halo exchange is one ``irecv`` and one ``send`` per edge, and
  ``allreduce`` (:func:`allreduce`) is recursive doubling over ``send`` /
  ``recv``, so the tracker, the tracer and the fault injector each see
  every message, on its own rank at its modeled instant.  The allreduce
  sums a Python float or a numeric array (the same shape and dtype on
  every rank); anything else raises ``CommError`` naming the rank, and
  operands that differ between ranks raise it naming the first two ranks
  whose partial sums meet.  A broadcast, a gather or a barrier is a rank
  program of your own over ``send`` / ``recv``; :mod:`p2p_collectives`
  has the textbook ones.
* A forgotten ``await`` hands you a coroutine object instead of a value;
  Python then reports "coroutine … was never awaited", which
  ``pyproject.toml`` turns into a test error.  A rank program that is not
  ``async def`` is rejected with a ``CommError``.
* Time is modeled.  Never read ``time.*`` or sleep inside a rank program:
  charge compute with ``comm.advance`` (a finite number of seconds >= 0),
  read ``comm.now()``.  Assert on clocks and span durations with
  equalities or strict inequalities — they repeat exactly.
* There is no polling and no receive timeout: a receive waits until its
  message arrives, and a run in which no rank can proceed is a deadlock.
* A solver's rank program has a twin in :mod:`repro.dist.spmd`, the same
  statements once over all ranks (``_clocked_cg`` /
  ``_clocked_pipelined_pcg``), whose ledger gives every rank the clock
  this engine gives it.  Change both texts together, statement for
  statement and in the same order: ``tests/test_clocked_executor.py``,
  ``tests/test_traced_ledger.py`` and ``tests/test_faulted_ledger.py``
  compare them and fail on any drift.
"""

from __future__ import annotations

import inspect
import math
import operator
import types
from collections import deque
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.errors import CommError, RankFailedError
from repro.instrument import get_metrics, get_tracer
from repro.mpisim import ClockModel, CommTracker, get_injector, payload_nbytes
from repro.mpisim.injection import DuplicateEnvelope

__all__ = ["ANY_TAG", "Comm", "Request", "allreduce", "run_spmd"]

#: The tag of a receive that matches any tag.
ANY_TAG = -1

_TAG_ALLREDUCE = 1_000_004

#: Sentinel distinguishing "no matching message" from a ``None`` payload.
_NOTHING = object()

#: ``wait_src`` of a rank that is not blocked (real sources are >= 0, so
#: it cannot match a sender).
_RUNNABLE = -1


@types.coroutine
def _park():
    """Hand the thread back to the scheduler until this rank is re-queued."""
    yield


class _Scheduler:
    """The shared state of one run: ready queue, mailboxes, wait records,
    clocks.  Rank endpoints mutate it directly; only one of them runs at a
    time, so nothing here is locked."""

    __slots__ = (
        "size", "clock", "alpha", "beta", "tracker", "tracer", "metrics",
        "injector", "ready", "boxes", "wait_src", "wait_tag", "clocks",
    )

    def __init__(self, size: int, clock: ClockModel, tracker: CommTracker | None):
        self.size = size
        self.clock = clock
        self.alpha = clock.alpha
        self.beta = clock.beta
        self.tracker = tracker
        # looked up once per run, not per message
        self.tracer = get_tracer()
        self.metrics = get_metrics()
        self.injector = get_injector()
        self.ready: deque[int] = deque()
        #: per rank: source -> FIFO of (tag, payload, arrival); a plain list,
        #: it rarely holds more than a message or two
        self.boxes: list[dict[int, list]] = [{} for _ in range(size)]
        self.wait_src = [_RUNNABLE] * size
        self.wait_tag = [ANY_TAG] * size  # the tag a blocked rank waits on
        self.clocks = [0.0] * size

    def enqueue(self, src: int, dest: int, tag: int, obj, arrival: float) -> None:
        """Put one message in ``dest``'s mailbox; re-queue ``dest`` if this
        is what it waits on."""
        box = self.boxes[dest]
        queue = box.get(src)
        if queue is None:
            box[src] = [(tag, obj, arrival)]
        else:
            queue.append((tag, obj, arrival))
        if self.wait_src[dest] == src:
            wanted = self.wait_tag[dest]
            if wanted == tag or wanted == ANY_TAG:
                self.wait_src[dest] = _RUNNABLE
                self.ready.append(dest)

    def deadlock(self) -> CommError:
        """The error for "nothing runnable, not everyone finished"."""
        blocked = []
        for rank, source in enumerate(self.wait_src):
            if source != _RUNNABLE:
                tag = self.wait_tag[rank]
                blocked.append(
                    f"rank {rank} waits on recv(source={source}, "
                    f"tag={'ANY_TAG' if tag == ANY_TAG else tag})"
                )
        return CommError(
            f"deadlock: no rank can run and {len(blocked)} of {self.size} have "
            "not finished (missing send?) — " + "; ".join(blocked)
        )

    def run(self, programs: list) -> list:
        """Drive the rank coroutines to completion; returns their results."""
        results: list[Any] = [None] * self.size
        ready = self.ready
        ready.extend(range(self.size))
        tracer = self.tracer
        # one span stack per rank, stamped by that rank's modeled clock
        contexts = (
            [tracer.task(r, partial(self.clocks.__getitem__, r))
             for r in range(self.size)]
            if tracer.enabled else None
        )
        outer = tracer.activate(contexts[0]) if contexts else None
        live = self.size
        try:
            while live:
                if not ready:
                    raise self.deadlock()
                rank = ready.popleft()
                if contexts:
                    tracer.activate(contexts[rank])
                try:
                    programs[rank].send(None)
                except StopIteration as stop:
                    results[rank] = stop.value
                    programs[rank] = None
                    live -= 1
                except Exception as exc:
                    programs[rank] = None
                    raise CommError(f"rank {rank} failed: {exc!r}") from exc
        finally:
            # unwind whatever did not finish: spans close on their own
            # rank's stack
            for rank, program in enumerate(programs):
                if program is not None:
                    if contexts:
                        tracer.activate(contexts[rank])
                    program.close()
            if contexts:
                tracer.activate(outer)
        return results


class Request:
    """Handle of a nonblocking receive (mpi4py ``irecv`` style):
    ``await req.wait()`` blocks until the message is in the mailbox and
    returns its payload (again on every later call)."""

    __slots__ = ("_comm", "_source", "_tag", "_done", "_value")

    def __init__(self, comm: Comm, source: int, tag: int):
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._value = None

    async def wait(self):
        """Block until complete; returns the received payload."""
        if not self._done:
            self._value = await self._comm._recv(self._source, self._tag)
            self._done = True
        return self._value


class Comm:
    """One rank's communicator: its endpoint on the scheduler, which
    :func:`run_spmd` passes to the rank program.

    Mirrors the mpi4py calls the paper's solver makes (lower-case
    object-based methods): buffered ``send``, ``recv`` / ``irecv`` and the
    dot products' ``allreduce``.  What can block — ``recv``,
    ``Request.wait``, ``allreduce`` — is a coroutine the rank program
    awaits; the rest are plain calls.
    """

    def __init__(self, rank: int, sched: _Scheduler):
        self.rank = rank
        self.size = sched.size
        #: The run's :class:`~repro.mpisim.CommTracker`, or ``None``.
        self.tracker = sched.tracker
        #: The run's :class:`ClockModel` (rank programs read the compute rates).
        self.clock = sched.clock
        self._sched = sched
        self._tracer = sched.tracer
        self._traced = sched.tracer.enabled
        #: a send must be sized for the tracker or the tracer
        self._accounted = sched.tracker is not None or self._traced
        #: a fault plan or the tracer watches every receive
        self._observed = self._traced or sched.injector is not None
        #: dest -> [messages, bytes]; merged into the tracker when the run ends
        self._edges: dict[int, list[int]] = {}
        #: (source, per-edge sequence id) of the duplicates delivered
        self._seen_dups: set[tuple[int, int]] = set()

    # -- modeled time ---------------------------------------------------
    def now(self) -> float:
        """This rank's modeled clock, in seconds since the launch."""
        return self._sched.clocks[self.rank]

    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` of modeled time to this rank (compute, a
        stall, a retry back-off): a finite number >= 0.  Never yields to
        other ranks."""
        if not 0 <= seconds < math.inf:
            raise CommError(f"cannot advance the clock by {seconds!r} seconds")
        self._sched.clocks[self.rank] += seconds

    def _check_peer(self, peer) -> None:
        try:
            valid = 0 <= operator.index(peer) < self.size
        except TypeError:
            valid = False
        if not valid:
            raise CommError(
                f"peer rank {peer!r} is not an integer in [0, {self.size})"
            )

    # -- send -----------------------------------------------------------
    def send(self, obj, dest: int, tag: int = 0) -> None:
        """Buffered (eager) send: enqueue and return immediately.

        Each message is recorded in the tracker (when attached) and, with
        tracing enabled, emitted as an ``mpisim.send`` instant event tagged
        with source, destination, tag and payload bytes.
        """
        self._check_peer(dest)
        if dest == self.rank:
            raise CommError("send to self is not supported; restructure the exchange")
        if isinstance(obj, np.ndarray):
            obj = obj.copy()
        injector = self._sched.injector
        if injector is not None:
            obj = self._inject_on_send(injector, obj, dest, tag)
        self._deliver(obj, dest, tag)

    def _deliver(self, obj, dest: int, tag: int) -> None:
        """Account for and enqueue one wire message.  Its arrival is
        :meth:`ClockModel.message_seconds` after the sender's clock, inlined
        here (the hot path)."""
        sched = self._sched
        arrival = sched.clocks[self.rank] + sched.alpha
        if self._accounted or sched.beta:
            nbytes = payload_nbytes(obj)
            arrival += sched.beta * nbytes
            if self._accounted:
                self._account_send(dest, tag, nbytes)
        sched.enqueue(self.rank, dest, tag, obj, arrival)

    def _account_send(self, dest: int, tag: int, nbytes: int) -> None:
        """Book one outgoing wire message with the tracker and the tracer."""
        tracer = self._tracer
        if self.tracker is not None:
            edge = self._edges.get(dest)
            if edge is None:
                self._edges[dest] = [1, nbytes]
            else:
                edge[0] += 1
                edge[1] += nbytes
        if tracer.enabled:
            tracer.event("mpisim.send", src=self.rank, dst=dest, tag=tag,
                         bytes=nbytes)
            metrics = self._sched.metrics
            metrics.counter("mpisim.messages").inc()
            metrics.counter("mpisim.bytes").inc(nbytes)

    # -- allreduce ------------------------------------------------------
    async def allreduce(self, value):
        """The sum of every rank's ``value`` — a Python float, or a numeric
        array of one shape and dtype on every rank — delivered to every
        rank.

        Point to point: the recursive doubling of
        :func:`allreduce`, which raises
        :class:`~repro.errors.CommError` naming two ranks whose operands
        differ in type, shape or dtype.
        """
        if not (type(value) is float or (type(value) is np.ndarray and value.ndim
                                         and value.dtype.kind in "fiu")):
            raise CommError(
                f"allreduce: rank {self.rank} passed {_describe(value)}; it sums "
                "a Python float or a numeric array"
            )
        with self._tracer.span("mpisim.allreduce", rank=self.rank):
            return await allreduce(self, value)

    # -- fault injection ------------------------------------------------
    def _apply_rank_faults(self, injector) -> None:
        """Raise on permanent failure; serve any pending transient stall.

        Called on entry to every injected send/recv, so ``at_update`` in a
        stall rule counts this rank's communication operations.  A failure
        rule compares ``at_update`` with the injector's halo-update counter,
        which nothing in this engine advances: a ``RankFailure`` with
        ``at_update >= 1`` never fires here (the faulted clock ledger starts
        one update per halo exchange).  A stall advances the rank's clock;
        nothing sleeps.
        """
        if injector.rank_failed(self.rank):
            raise RankFailedError(self.rank)
        seconds = injector.consume_stall(self.rank)
        if seconds > 0:
            self._sched.metrics.counter("resilience.stalls").inc()
            with self._tracer.span("resilience.stall", rank=self.rank,
                                   seconds=seconds):
                self.advance(seconds)

    def _inject_on_send(self, injector, obj, dest: int, tag: int):
        """Run one outgoing message through the installed fault plan.

        Reliable-transport semantics: drops and over-timeout delays cost a
        retry (``mpisim.retries``) with linear back-off — charged to this
        rank's clock — until the plan's ``max_retries`` is exhausted
        (``mpisim.timeouts`` + :class:`~repro.errors.CommError`).  Returns
        the payload to enqueue — possibly bit-flipped, possibly wrapped in
        a :class:`~repro.mpisim.injection.DuplicateEnvelope` (in which case
        the extra copy is enqueued here and deduplicated by the receiver).
        """
        self._apply_rank_faults(injector)
        plan = injector.plan
        tracer = self._tracer
        metrics = self._sched.metrics
        attempts = 0
        while True:
            verdict = injector.message_verdict(self.rank, dest, tag)
            if verdict.dropped or verdict.delay_s > plan.message_timeout:
                attempts += 1
                injector.record_retry()
                metrics.counter("mpisim.retries", rank=self.rank).inc()
                tracer.event(
                    "resilience.retry",
                    src=self.rank,
                    dst=dest,
                    attempt=attempts,
                    cause="drop" if verdict.dropped else "timeout",
                )
                if attempts > plan.max_retries:
                    metrics.counter("mpisim.timeouts", rank=self.rank).inc()
                    raise CommError(
                        f"send {self.rank}->{dest} (tag {tag}) lost {attempts} "
                        f"times (max_retries={plan.max_retries}); giving up"
                    )
                with tracer.span("resilience.backoff", src=self.rank, dst=dest,
                                 attempt=attempts):
                    self.advance(plan.backoff * attempts)
                continue
            break
        if verdict.delay_s > 0:
            with tracer.span("resilience.delay", src=self.rank, dst=dest,
                             seconds=verdict.delay_s):
                self.advance(verdict.delay_s)
        if verdict.flip_bit is not None:
            obj = injector.corrupt(obj, verdict)
            metrics.counter("resilience.bitflips").inc()
            tracer.event("resilience.bitflip", src=self.rank, dst=dest,
                         bit=verdict.flip_bit)
        if verdict.duplicated:
            obj = DuplicateEnvelope(injector.next_duplicate_seq(self.rank, dest), obj)
            metrics.counter("mpisim.dup_messages").inc()
            tracer.event("resilience.duplicate", src=self.rank, dst=dest, seq=obj.seq)
            sched = self._sched
            sched.enqueue(  # the extra copy
                self.rank, dest, tag, obj,
                sched.clocks[self.rank]
                + sched.clock.message_seconds(payload_nbytes(obj)),
            )
        return obj

    # -- receive --------------------------------------------------------
    def irecv(self, source: int, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; complete it with ``await req.wait()``."""
        self._check_peer(source)
        if source == self.rank:
            raise CommError("recv from self is not supported")
        return Request(self, source, tag)

    async def recv(self, source: int, tag: int = ANY_TAG):
        """Block until a message matching ``(source, tag)`` arrives."""
        self._check_peer(source)
        if source == self.rank:
            raise CommError("recv from self is not supported")
        return await self._recv(source, tag)

    def _take(self, source: int, tag: int, latest: float | None = None):
        """Complete a receive from the mailbox without parking.

        Pops the earliest message from ``source`` matching ``tag`` and
        moves the clock to ``max(own, arrival)``; ``_NOTHING`` when no
        match is in the mailbox or the match lands after ``latest``.
        """
        sched = self._sched
        rank = self.rank
        queue = sched.boxes[rank].get(source)
        while queue:
            index = 0
            if tag != ANY_TAG and queue[0][0] != tag:
                for index in range(1, len(queue)):
                    if queue[index][0] == tag:
                        break
                else:
                    return _NOTHING
            got_tag, obj, arrival = queue[index]
            if latest is not None and arrival > latest:
                return _NOTHING
            del queue[index]
            if isinstance(obj, DuplicateEnvelope):
                if (source, obj.seq) in self._seen_dups:
                    continue  # stale copy of an already-delivered message
                self._seen_dups.add((source, obj.seq))
                obj = obj.payload
            if arrival > sched.clocks[rank]:
                sched.clocks[rank] = arrival
            if self._tracer.enabled:
                self._tracer.event("mpisim.recv", src=source, dst=rank, tag=got_tag)
            return obj
        return _NOTHING

    def _recv(self, source: int, tag: int):
        """``recv`` behind the peer checks; returns the coroutine to await:
        straight to the take-or-park loop unless a fault plan or the tracer
        watches receives."""
        if self._observed:
            return self._observed_recv(source, tag)
        return self._take_or_park(source, tag)

    async def _take_or_park(self, source: int, tag: int):
        """A receive: take the match from the mailbox, or park until a
        matching delivery re-queues this rank."""
        value = self._take(source, tag)
        while value is _NOTHING:
            sched = self._sched
            sched.wait_src[self.rank] = source
            sched.wait_tag[self.rank] = tag
            await _park()
            value = self._take(source, tag)
        return value

    async def _observed_recv(self, source: int, tag: int):
        """A receive someone watches: a fault plan or the tracer.

        With tracing enabled a receive whose message has not arrived yet is
        an ``mpisim.wait`` span tagged with the awaited source — its
        duration is the modeled time the rank waited, the raw material of
        the timeline layer's wait attribution.
        """
        injector = self._sched.injector
        if injector is not None:
            self._apply_rank_faults(injector)
        if not self._traced:
            return await self._take_or_park(source, tag)
        value = self._take(source, tag, self.now())
        if value is not _NOTHING:
            return value  # it had already arrived: no wait to record
        with self._tracer.span("mpisim.wait", rank=self.rank, src=source, tag=tag):
            return await self._take_or_park(source, tag)


async def _rank_main(fn, comm: Comm, args, kwargs):
    """One rank's coroutine: the program under its root span."""
    with comm._tracer.span("spmd.rank", rank=comm.rank):
        program = fn(comm, *args, **kwargs)
        if not inspect.isawaitable(program):
            raise CommError(
                f"rank program {getattr(fn, '__name__', fn)!r} returned "
                f"{type(program).__name__}, not a coroutine: declare it "
                "`async def` and await everything that can block"
            )
        return await program


def run_spmd(
    fn: Callable[..., Any],
    size: int,
    *args,
    tracker: CommTracker | None = None,
    clock: ClockModel | None = None,
    **kwargs,
) -> list:
    """Run ``await fn(comm, *args, **kwargs)`` on ``size`` ranks; return all
    results.

    ``fn`` is a coroutine function (``async def``): it awaits everything
    that can block (``recv``, ``Request.wait``, ``allreduce``) and calls
    ``send`` / ``irecv`` / ``now()`` / ``advance()`` plainly.  All
    ranks run interleaved on the calling thread; nothing about the run
    depends on the host's scheduler or clock.

    ``clock`` is the run's :class:`ClockModel`: link latency and inverse
    bandwidth for message arrival times, compute rates for the kernels a
    rank program charges with ``comm.advance``.  The all-zero default
    simulates message order only (every clock stays at 0).

    A rank that raises stops the run at once: every other rank's coroutine
    is closed and the exception re-raised as ``CommError("rank r failed:
    …")`` from it.  A state in which no rank can run and not all have
    finished raises the deadlock :class:`~repro.errors.CommError`.
    """
    if size < 1:
        raise CommError("size must be >= 1")
    sched = _Scheduler(size, clock if clock is not None else ClockModel(), tracker)
    comms = [Comm(r, sched) for r in range(size)]
    try:
        return sched.run([_rank_main(fn, comm, args, kwargs) for comm in comms])
    finally:
        if tracker is not None:
            for comm in comms:
                tracker.merge_p2p(comm.rank, comm._edges)


# -- the allreduce: recursive doubling over point-to-point messages ----------
def _describe(value) -> str:
    """An allreduce operand, for an error message: a float by its type (a
    partial sum is no one rank's value), anything else with its value."""
    if type(value) is np.ndarray:
        return f"a {value.dtype} array of shape {value.shape}"
    if type(value) is float:
        return "a Python float"
    return f"{type(value).__name__} {value!r:.40}"


def _combine(acc, received, src: int, dst: int):
    """``acc + received`` on rank ``dst``, ``received`` being rank ``src``'s
    partial: both Python floats, or arrays of one shape and dtype.  A
    partial keeps its rank's operand type and shape, so the error names two
    ranks whose operands differ."""
    if type(received) is not type(acc) or (
        type(acc) is np.ndarray
        and (received.shape != acc.shape or received.dtype != acc.dtype)
    ):
        raise CommError(
            f"allreduce: rank {src} passed {_describe(received)} but rank {dst} "
            f"passed {_describe(acc)}; every rank must pass a Python float or a "
            "numeric array of one shape and dtype"
        )
    return acc + received


async def allreduce(comm: Comm, value):
    """Recursive-doubling sum (with pre/post folding when P is not 2^k)."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return value
    pof2 = 1 << (size.bit_length() - 1)  # largest power of two <= size
    rem = size - pof2
    acc = value
    # fold the remainder ranks into the power-of-two group
    if rank < 2 * rem:
        if rank % 2 == 1:  # odd ranks send and go idle
            comm.send(acc, rank - 1, _TAG_ALLREDUCE)
            newrank = -1
        else:
            acc = _combine(acc, await comm.recv(rank + 1, _TAG_ALLREDUCE), rank + 1, rank)
            newrank = rank // 2
    else:
        newrank = rank - rem
    if newrank != -1:
        mask = 1
        while mask < pof2:
            peer_new = newrank ^ mask
            peer = peer_new * 2 if peer_new < rem else peer_new + rem
            comm.send(acc, peer, _TAG_ALLREDUCE + mask)
            acc = _combine(acc, await comm.recv(peer, _TAG_ALLREDUCE + mask), peer, rank)
            mask <<= 1
    # unfold: send results back to the idle odd ranks
    if rank < 2 * rem:
        if rank % 2 == 0:
            comm.send(acc, rank + 1, _TAG_ALLREDUCE)
        else:
            acc = await comm.recv(rank - 1, _TAG_ALLREDUCE)
    return acc
