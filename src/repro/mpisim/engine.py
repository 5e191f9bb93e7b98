"""SPMD execution engine: rank coroutines on one thread, on a modeled clock.

:func:`run_spmd` turns a rank program — an ``async def`` taking a
:class:`~repro.mpisim.Comm` — into one coroutine per rank and drives them
all on the calling thread with a cooperative scheduler:

* a FIFO **ready queue**; a rank runs until it finishes or parks in a
  receive that nothing in its mailbox satisfies, recording the
  ``(source, tag)`` it waits on, and the delivery that matches re-queues
  it.  No threads, locks or wall-clock deadlines: the interleaving, every
  result, every tracker snapshot and every final clock are a pure function
  of the program and the rank count;
* a **modeled clock** per rank (:meth:`Comm.now`): a message becomes
  matchable at sender-clock + α + β·bytes (:class:`ClockModel`), a
  completed receive sets the receiver's clock to ``max(own, arrival)``, and
  :meth:`Comm.advance` charges compute, fault-injection stalls, delays and
  retry back-off;
* **exact failure**: "nothing runnable, not everyone finished" is a
  deadlock and raises :class:`~repro.errors.CommError` at once, naming what
  each blocked rank waits on; a rank that raises closes every other
  coroutine (open spans unwind) and re-raises as
  ``CommError("rank r failed: …")`` immediately.

``send`` is *buffered* (eager-mode MPI): it enqueues and returns, so the
pairwise exchange patterns of the allreduce and the halo updates cannot
deadlock on matched sends.  Messages between one pair of ranks never
overtake each other, and a receive always names its source, so which
message a receive matches does not depend on the clock — the clock only
says *when*.  NumPy payloads are copied on send so a rank mutating its
buffer after the call cannot corrupt data in flight.

``allreduce`` and the halo exchange are primitives of the scheduler.  An
allreduce parks each rank in the run's collective slot; the last rank to
arrive runs every round of
:func:`~repro.mpisim.collectives.allreduce_schedule` for all ranks — one
NumPy sum per round over the ranks' floats or equal-shape arrays — and
re-queues the rest.  The halo exchange is split-phase, MPI-3
``MPI_Neighbor_alltoallv`` over a persistent plan per halo schedule per
run: ``halo_start`` packs a rank's outgoing values with one ``take`` and
stamps them clock + α, and ``await halo_finish`` parks until every source
has posted that exchange, unpacks with one ``take`` and sets the clock to
``max(own, post + β·bytes)`` over the sources.  Both give each rank the results and clocks
of the point-to-point algorithm and book its per-edge messages and bytes.
Traced and telemetered allreduces also get its per-message events, wait
spans and observations, each on its own rank at its modeled instant.
While a fault injector is installed every rank runs the point-to-point
algorithms instead (a fault in one message changes what follows), and
while the tracer or telemetry watches, so does the halo exchange.
"""

from __future__ import annotations

import inspect
import math
import operator
import types
from collections import deque
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.errors import CommError, RankFailedError
from repro.instrument import get_metrics, get_tracer
from repro.mpisim import collectives
from repro.mpisim.comm import ANY_TAG, ClockModel
from repro.mpisim.injection import DuplicateEnvelope, get_injector
from repro.mpisim.tracker import CommTracker, payload_nbytes

__all__ = ["Comm", "Request", "run_spmd"]

#: Sentinel distinguishing "no matching message" from a ``None`` payload.
_NOTHING = object()

#: ``wait_src`` of a rank that is not blocked (real sources are >= 0, so
#: it cannot match a sender), and of one parked in a native allreduce /
#: halo finish.
_RUNNABLE = -1
_COLLECTIVE = -2
_HALO = -3


@types.coroutine
def _park():
    """Hand the thread back to the scheduler until this rank is re-queued."""
    yield


def _describe(value) -> str:
    """An allreduce operand, for an error message."""
    if type(value) is np.ndarray:
        return f"a {value.dtype} array of shape {value.shape}"
    return f"{type(value).__name__} {value!r:.40}"


def _stacked(values: list) -> np.ndarray:
    """The ranks' allreduce operands stacked into one array: all Python
    floats, or all arrays of one shape and dtype; otherwise
    :class:`~repro.errors.CommError` names the first rank that differs from
    rank 0."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return np.array(values)
    first = values[0]
    shape = (first.shape, first.dtype) if type(first) is np.ndarray else None
    if kinds == {np.ndarray} and {(v.shape, v.dtype) for v in values} == {shape}:
        return np.stack(values)
    rank = next(r for r, v in enumerate(values) if type(v) is not type(first)
                or (shape is not None and (v.shape, v.dtype) != shape))
    raise CommError(
        f"allreduce: rank {rank} passed {_describe(values[rank])} but rank 0 "
        f"passed {_describe(first)}; every rank must pass a Python float or "
        "a numeric array of one shape and dtype"
    )


class _HaloPlan:
    """One halo schedule's exchange plan in one run (``schedule`` is a
    :class:`~repro.dist.HaloSchedule`, duck-typed).  Rank ``p`` packs
    ``x_local[gather[p]]``, every destination's values in ``send_to``
    order, into ``wire[offset[p]:offset[p + 1]]`` and unpacks its halo as
    ``wire[scatter[p]]``; it receives ``link[p]`` = β·bytes (8 per float64
    value) from each of ``sources[p]``.  Neighbour lists are plain lists:
    on a handful of entries, list code beats NumPy calls."""

    __slots__ = ("dests", "sources", "gather", "offset", "scatter", "link",
                 "started", "finished", "generations")

    def __init__(self, schedule, size: int, beta: float):
        ranks = range(size)
        self.dests = [[q for q, ids in schedule.send_to[p].items() if ids.size] for p in ranks]
        self.sources = [[q for q, ids in schedule.recv_from[p].items() if ids.size]
                        for p in ranks]
        self.gather = [np.concatenate([schedule.recv_src[q][p] for q in self.dests[p]]
                                      or [np.empty(0, np.intp)]) for p in ranks]
        self.offset = np.cumsum([0] + [g.size for g in self.gather]).tolist()
        self.scatter = [np.zeros(schedule.ext_cols[p].size, dtype=np.intp) for p in ranks]
        for p in ranks:
            start = self.offset[p]
            for q in self.dests[p]:  # p's values for q land in q's halo here
                pos = schedule.recv_pos[q][p]
                self.scatter[q][pos] = start + np.arange(pos.size)
                start += pos.size
        self.link = [[beta * (8 * schedule.recv_pos[p][q].size) for q in self.sources[p]]
                     for p in ranks]
        self.started, self.finished = [0] * size, [0] * size
        #: exchange k -> its _Exchange, from its first start to its last finish
        self.generations: dict[int, _Exchange] = {}


class _Exchange:
    """One generation of a plan: its wire, post clocks (+ α), unposted
    sources per rank, parked ranks and number of finishes."""

    __slots__ = ("wire", "posts", "missing", "parked", "finished")

    def __init__(self, plan: _HaloPlan):
        self.wire = np.empty(plan.offset[-1])
        self.posts = [0.0] * len(plan.sources)
        self.missing = [len(s) for s in plan.sources]
        self.parked: set[int] = set()
        self.finished = 0


class _Scheduler:
    """The shared state of one run: ready queue, mailboxes, wait records,
    clocks.  Rank endpoints mutate it directly; only one of them runs at a
    time, so nothing here is locked."""

    __slots__ = (
        "size", "clock", "alpha", "beta", "tracker", "tracer", "metrics",
        "injector", "ready", "boxes", "wait_src", "wait_tag", "clocks",
        "comms", "contexts", "arrived", "arrivals", "results", "booked_calls",
        "booked_bytes", "plans",
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
        #: the tag a blocked rank waits on; (plan, exchange) in a halo finish
        self.wait_tag: list = [ANY_TAG] * size
        self.clocks = [0.0] * size
        self.comms: list[Comm] = []
        self.contexts = None  # per-rank tracer task contexts, when tracing
        # the native allreduce: who arrived with what, the last results, and
        # the calls untraced runs booked with the bytes each sent per edge
        # (every call sends one message on every edge of every round)
        self.arrived = 0
        self.arrivals: list = [None] * size
        self.results: list = []
        self.booked_calls = 0
        self.booked_bytes = 0
        #: id(schedule) -> (schedule, its _HaloPlan), for this run only
        self.plans: dict[int, tuple] = {}

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
            if source == _COLLECTIVE:
                blocked.append(
                    f"rank {rank} waits in allreduce ({self.arrived} of "
                    f"{self.size} ranks arrived)"
                )
            elif source == _HALO:
                plan, k = self.wait_tag[rank]
                unposted = [q for q in plan.sources[rank] if plan.started[q] <= k]
                blocked.append(
                    f"rank {rank} waits in halo_finish for exchange {k + 1} "
                    f"from ranks {unposted}, which have not posted it"
                )
            elif source != _RUNNABLE:
                tag = self.wait_tag[rank]
                blocked.append(
                    f"rank {rank} waits on recv(source={source}, "
                    f"tag={'ANY_TAG' if tag == ANY_TAG else tag})"
                )
        return CommError(
            f"deadlock: no rank can run and {len(blocked)} of {self.size} have "
            "not finished (missing send?) — " + "; ".join(blocked)
        )

    # -- the native allreduce -------------------------------------------
    async def allreduce(self, rank: int, value):
        """One rank's side of a native allreduce: park until every rank has
        arrived; the last to arrive runs all rounds for everyone and
        re-queues the others."""
        self.arrivals[rank] = value
        self.arrived += 1
        if self.arrived < self.size:
            self.wait_src[rank] = _COLLECTIVE
            await _park()
            return self.results[rank]
        values, self.arrivals = self.arrivals, [None] * self.size
        self.arrived = 0
        stacked = _stacked(values)
        comms = self.comms
        watched = comms[0]._watched or any(c._telemetry_mode for c in comms)
        nbytes = payload_nbytes(values[0])
        clocks = np.array(self.clocks)
        collectives.reduce_rounds(clocks, stacked, self.alpha, self.beta, nbytes,
                                  partial(self._replay, nbytes) if watched else None)
        if self.tracker is not None and not watched:
            self.booked_calls += 1
            self.booked_bytes += nbytes
        self.clocks[:] = clocks.tolist()
        self.results = stacked.tolist() if stacked.ndim == 1 else list(stacked)
        if self.contexts:
            self.tracer.activate(self.contexts[rank])
        # every other rank is parked in this allreduce
        self.wait_src = [_RUNNABLE] * self.size
        self.ready.extend(r for r in range(self.size) if r != rank)
        return self.results[rank]

    def _replay(self, nbytes, sources, dests, tag, arrival) -> None:
        """One round's per-message observations, as the point-to-point
        round makes them: each send, then each receive, on its own rank's
        task context at its modeled instant (the clock list still holds
        the round's starting clocks)."""
        comms, contexts, tracer = self.comms, self.contexts, self.tracer
        sources, dests = sources.tolist(), dests.tolist()  # index arrays
        for src, dest in zip(sources, dests):
            if contexts:
                tracer.activate(contexts[src])
            comms[src]._account_send(dest, tag, nbytes)
        for src, dest, landed in zip(sources, dests, arrival.tolist()):
            if contexts:
                tracer.activate(contexts[dest])
            comms[dest]._replay_recv(src, tag, landed)

    def run(self, programs: list) -> list:
        """Drive the rank coroutines to completion; returns their results."""
        results: list[Any] = [None] * self.size
        ready = self.ready
        ready.extend(range(self.size))
        tracer = self.tracer
        # one span stack per rank, stamped by that rank's modeled clock
        contexts = self.contexts = (
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


def book_bulk(tracker: CommTracker, edges: list[dict], calls: int, nbytes: int, halos) -> None:
    """Merge each sender's ``edges`` (destination -> ``[messages, bytes]``)
    into ``tracker`` with the bulk traffic: a message per round edge per
    allreduce, and per non-empty halo edge per start (``starts[p]``)."""
    traffic = [
        (s, d, calls, nbytes)
        for sources, dests, _, _ in (collectives.allreduce_schedule(len(edges))
                                     if calls else ())
        for s, d in zip(sources.tolist(), dests.tolist())
    ] + [
        (p, d, n, n * 8 * ids.size)
        for schedule, starts in halos
        for p, n in enumerate(starts) if n
        for d, ids in schedule.send_to[p].items() if ids.size
    ]
    for src, dest, messages, size in traffic:
        cell = edges[src].setdefault(dest, [0, 0])
        cell[0] += messages
        cell[1] += size
    for rank, cells in enumerate(edges):
        tracker.merge_p2p(rank, cells)


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
    object-based methods): buffered ``send``, ``recv`` / ``irecv``, the
    dot products' ``allreduce`` and the halo exchange
    (``halo_plan`` / ``halo_start`` / ``halo_finish``).  What can block —
    ``recv``, ``Request.wait``, ``allreduce``, ``halo_finish`` — is a
    coroutine the rank program awaits; the rest are plain calls.
    """

    def __init__(self, rank: int, sched: _Scheduler, telemetry=None):
        self.rank = rank
        self.size = sched.size
        #: The run's :class:`~repro.mpisim.CommTracker`, or ``None``.
        self.tracker = sched.tracker
        #: The run's :class:`ClockModel` (rank programs read the compute rates).
        self.clock = sched.clock
        #: This rank's bounded telemetry endpoint
        #: (:class:`repro.observe.stream.RankTelemetry`), installed by
        #: :func:`run_spmd` when a ``telemetry=`` config is passed.
        #: Duck-typed — the transport only calls ``observe_message`` /
        #: ``observe_wait`` / ``observe`` on it.
        self.telemetry = telemetry
        #: True while inside :meth:`telemetry_channel`: traffic is booked as
        #: telemetry (``CommTracker.record_telemetry``) instead of solver
        #: p2p, and is itself never observed into the telemetry histograms.
        self._telemetry_mode = False
        self._sched = sched
        self._tracer = sched.tracer
        #: a send must be sized / a receive must be timed for someone
        self._accounted = (
            sched.tracker is not None or sched.tracer.enabled or telemetry is not None
        )
        self._watched = sched.tracer.enabled or telemetry is not None
        self._faulted = sched.injector is not None  # no native primitives
        #: dest -> [messages, bytes]; merged into the tracker when the run ends
        self._edges: dict[int, list[int]] = {}
        self._seen_dups: set[int] = set()  # sequence ids of delivered duplicates

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
        """Book one outgoing wire message with tracker, tracer and telemetry.

        Inside a :meth:`telemetry_channel` context the message is
        in-band telemetry: it lands in the tracker's separate telemetry
        accounting (excluded from the invariance audit), its trace event is
        tagged ``channel="telemetry"`` (excluded from timelines), and it is
        never observed into the telemetry histograms themselves.
        """
        tracer = self._tracer
        if self._telemetry_mode:
            if self.tracker is not None:
                self.tracker.record_telemetry(self.rank, dest, nbytes)
            if tracer.enabled:
                tracer.event("mpisim.send", src=self.rank, dst=dest, tag=tag,
                             bytes=nbytes, channel="telemetry")
                metrics = self._sched.metrics
                metrics.counter("mpisim.telemetry_messages").inc()
                metrics.counter("mpisim.telemetry_bytes").inc(nbytes)
            return
        if self.telemetry is not None:
            self.telemetry.observe_message(nbytes)
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

        Native on the scheduler; point to point
        (:func:`repro.mpisim.collectives.allreduce`) while a fault injector
        is installed.  When a telemetry endpoint is installed, the modeled
        duration of the whole exchange goes into its ``reduction``
        histogram — the simulated counterpart of the α–β model's
        ``reductions`` term.
        """
        if not (type(value) is float or (type(value) is np.ndarray and value.ndim
                                         and value.dtype.kind in "fiu")):
            raise CommError(
                f"allreduce: rank {self.rank} passed {_describe(value)}; it sums "
                "a Python float or a numeric array"
            )
        telemetry = self.telemetry if not self._telemetry_mode else None
        start = self.now() if telemetry is not None else 0.0
        try:
            with self._tracer.span("mpisim.allreduce", rank=self.rank):
                if self._faulted or self.size == 1:
                    return await collectives.allreduce(self, value)
                return await self._sched.allreduce(self.rank, value)
        finally:
            if telemetry is not None:
                end = self.now()
                telemetry.observe("reduction", end - start, end=end)

    # -- the native halo exchange -----------------------------------------
    def halo_plan(self, schedule):
        """This run's exchange plan of a halo ``schedule`` (built on first
        use), or ``None`` to exchange point to point: under a fault
        injector, or while the tracer or telemetry watches every message."""
        if self._faulted or self._watched:
            return None
        plans = self._sched.plans  # holding the schedule pins its id
        if id(schedule) not in plans:
            plans[id(schedule)] = schedule, _HaloPlan(schedule, self.size, self._sched.beta)
        return plans[id(schedule)][1]

    def halo_start(self, plan: _HaloPlan, x_local: np.ndarray) -> _HaloPlan:
        """Post this rank's next exchange on ``plan``: pack ``x_local``'s
        outgoing values and stamp them with the clock + α.  Never blocks;
        returns the handle for :meth:`halo_finish`."""
        sched, p = self._sched, self.rank
        k = plan.started[p]
        plan.started[p] = k + 1
        exchange = plan.generations.get(k)
        if exchange is None:
            exchange = plan.generations[k] = _Exchange(plan)
        x_local.take(plan.gather[p], mode="clip",
                     out=exchange.wire[plan.offset[p]:plan.offset[p + 1]])
        exchange.posts[p] = sched.clocks[p] + sched.alpha
        missing, parked = exchange.missing, exchange.parked
        for dest in plan.dests[p]:  # no call per edge: count down, wake the last
            missing[dest] -= 1
            if not missing[dest] and dest in parked:
                parked.discard(dest)
                sched.wait_src[dest] = _RUNNABLE
                sched.ready.append(dest)
        return plan

    async def halo_finish(self, plan: _HaloPlan, halo: np.ndarray) -> np.ndarray:
        """Complete this rank's oldest unfinished exchange on ``plan`` into
        ``halo``: park until every source has posted it, then take the
        values and move the clock to the latest arrival."""
        sched, p = self._sched, self.rank
        k = plan.finished[p]
        if k >= plan.started[p]:
            raise CommError(f"rank {p}: halo_finish without a matching halo_start "
                            f"({k} started and finished on this plan)")
        plan.finished[p] = k + 1
        exchange = plan.generations[k]
        if exchange.missing[p]:
            exchange.parked.add(p)
            sched.wait_src[p], sched.wait_tag[p] = _HALO, (plan, k)
            await _park()
        sources = plan.sources[p]
        if sources:
            arrival = max(map(operator.add, map(exchange.posts.__getitem__, sources),
                              plan.link[p]))
            if arrival > sched.clocks[p]:
                sched.clocks[p] = arrival
            exchange.wire.take(plan.scatter[p], mode="clip", out=halo)
        exchange.finished += 1
        if exchange.finished == self.size:
            del plan.generations[k]
        return halo

    def _replay_recv(self, source: int, tag: int, arrival: float) -> None:
        """The receive of a native allreduce round, observed as
        :meth:`_observed_recv` observes a point-to-point one: a message
        landing after this rank's clock is an ``mpisim.wait`` span and a
        telemetry wait; the clock moves to it and ``mpisim.recv`` is
        emitted."""
        clocks = self._sched.clocks
        start = clocks[self.rank]
        tracer = self._tracer
        waited = arrival > start and not self._telemetry_mode
        with (tracer.span("mpisim.wait", rank=self.rank, src=source, tag=tag)
              if waited else nullcontext()):
            clocks[self.rank] = max(start, arrival)
            if tracer.enabled:
                tracer.event("mpisim.recv", src=source, dst=self.rank, tag=tag)
        if waited and self.telemetry is not None:
            self.telemetry.observe_wait(arrival - start, tag=tag, src=source, end=arrival)

    # -- fault injection ------------------------------------------------
    def _apply_rank_faults(self, injector) -> None:
        """Raise on permanent failure; serve any pending transient stall.

        Called on entry to every injected send/recv, so ``at_update`` in a
        stall/failure rule counts this rank's communication operations.
        A stall advances the rank's clock; nothing sleeps.
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
            obj = DuplicateEnvelope(injector.next_duplicate_seq(), obj)
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
                if obj.seq in self._seen_dups:
                    continue  # stale copy of an already-delivered message
                self._seen_dups.add(obj.seq)
                obj = obj.payload
            if arrival > sched.clocks[rank]:
                sched.clocks[rank] = arrival
            if self._tracer.enabled:
                self._tracer.event("mpisim.recv", src=source, dst=rank, tag=got_tag)
            return obj
        return _NOTHING

    def _recv(self, source: int, tag: int):
        """``recv`` behind the peer checks; returns the coroutine to await:
        straight to the take-or-park loop unless a fault plan, the tracer
        or telemetry watches receives."""
        if self._watched or self._faulted:
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
        """A receive someone watches: fault plan, tracer or telemetry.

        With tracing enabled a receive whose message has not arrived yet is
        an ``mpisim.wait`` span tagged with the awaited source — its
        duration is the modeled time the rank waited, the raw material of
        the timeline layer's wait attribution — and a receive that waited
        is streamed into this rank's telemetry endpoint (when installed),
        classified by tag.  Receives made inside the telemetry channel
        record neither.
        """
        injector = self._sched.injector
        if injector is not None:
            self._apply_rank_faults(injector)
        if not self._watched or self._telemetry_mode:
            return await self._take_or_park(source, tag)
        start = self.now()
        value = self._take(source, tag, start)
        if value is not _NOTHING:
            return value  # it had already arrived: no wait to record
        with self._tracer.span("mpisim.wait", rank=self.rank, src=source, tag=tag):
            value = await self._take_or_park(source, tag)
        end = self.now()
        if self.telemetry is not None and end > start:
            self.telemetry.observe_wait(end - start, tag=tag, src=source, end=end)
        return value


async def _rank_main(fn, comm: Comm, telemetry, args, kwargs):
    """One rank's coroutine: the program under its root span, then the
    in-band telemetry reduction."""
    with comm._tracer.span("spmd.rank", rank=comm.rank):
        program = fn(comm, *args, **kwargs)
        if not inspect.isawaitable(program):
            raise CommError(
                f"rank program {getattr(fn, '__name__', fn)!r} returned "
                f"{type(program).__name__}, not a coroutine: declare it "
                "`async def` and await everything that can block"
            )
        result = await program
    if telemetry is not None:
        await telemetry.collect(comm, comm.telemetry)
    return result


def run_spmd(
    fn: Callable[..., Any],
    size: int,
    *args,
    tracker: CommTracker | None = None,
    clock: ClockModel | None = None,
    telemetry=None,
    **kwargs,
) -> list:
    """Run ``await fn(comm, *args, **kwargs)`` on ``size`` ranks; return all
    results.

    ``fn`` is a coroutine function (``async def``): it awaits everything
    that can block (``recv``, ``Request.wait``, ``allreduce``,
    ``halo_finish``) and calls ``send`` / ``irecv`` / ``halo_plan`` /
    ``halo_start`` / ``now()`` / ``advance()`` plainly.  All
    ranks run interleaved on the calling thread; nothing about the run
    depends on the host's scheduler or clock.

    ``clock`` is the run's :class:`ClockModel`: link latency and inverse
    bandwidth for message arrival times, compute rates for the kernels a
    rank program charges with ``comm.advance``.  The all-zero default
    simulates message order only (every clock stays at 0).

    ``telemetry`` takes a :class:`repro.observe.stream.TelemetryConfig`
    (duck-typed: anything with ``make_rank(rank, size)`` and an awaitable
    ``collect(comm, rank_telemetry)``): each rank gets a bounded telemetry
    endpoint on ``comm.telemetry``, the transport streams modeled
    receive waits and message sizes into it, and after ``fn`` returns the
    per-rank summaries are reduced in-band over an O(log P) tree — booked
    as telemetry traffic, invisible to the audited solver schedule.

    A rank that raises stops the run at once: every other rank's coroutine
    is closed and the exception re-raised as ``CommError("rank r failed:
    …")`` from it.  A state in which no rank can run and not all have
    finished raises the deadlock :class:`~repro.errors.CommError`.
    """
    if size < 1:
        raise CommError("size must be >= 1")
    sched = _Scheduler(size, clock if clock is not None else ClockModel(), tracker)
    comms = sched.comms = [
        Comm(r, sched, telemetry.make_rank(r, size) if telemetry is not None else None)
        for r in range(size)
    ]
    try:
        return sched.run(
            [_rank_main(fn, comm, telemetry, args, kwargs) for comm in comms]
        )
    finally:
        if tracker is not None:
            book_bulk(tracker, [comm._edges for comm in comms], sched.booked_calls,
                      sched.booked_bytes, [(s, plan.started) for s, plan in sched.plans.values()])
        sched.plans.clear()  # they hold the run's schedules
