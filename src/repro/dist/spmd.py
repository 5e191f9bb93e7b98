"""SPMD execution of the distributed kernels, on a modeled clock.

The BSP layer (:class:`~repro.dist.matrix.DistMatrix`) applies operations
rank-by-rank in the driver.  :func:`spmd_cg`, :func:`spmd_pipelined_pcg`
and :func:`spmd_halo_update` run the *same* data structures as SPMD
programs: a halo update is one message per edge, a reduction the recursive
doubling of :func:`repro.mpisim.collectives.allreduce_schedule`, and every
kernel charges its *modeled* cost to its rank's clock.

Every run takes the *clocked executor* (the end of this module): the
solver's statements once over all ranks with a :class:`_Ledger` of every
rank's clock, with no Python per rank.  Each group of equal-length ranks'
dot partials is one stacked ``matmul`` (the kernel ``ndarray.dot`` runs),
summed by the allreduce's rounds over all ranks at once
(:func:`repro.mpisim.collectives.reduce_rounds`); the traffic is booked in
bulk at the end (:func:`book_bulk`); telemetry and the tracer read one
record the ledger keeps.  Under a fault plan :func:`spmd_cg` keeps a
:class:`_FaultedLedger` instead, which sends the messages one at a time
through the plan's verdicts; the other two solvers raise
:class:`~repro.errors.CommError`.  Their rank programs, one coroutine per
rank on a per-message engine, live with the tests as the executor's oracle.

The work of a kernel (:func:`spmv_work`, :func:`vector_work`,
:func:`pack_work`) and of an iteration (:data:`CG_ITERATION`,
:data:`PIPELINED_ITERATION`) is defined once, here: the solvers charge it
and :class:`repro.perfmodel.CostModel` predicts from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.dist.matrix import DistMatrix
from repro.dist.vector import DistVector
from repro.errors import CommError, RankFailedError
from repro.instrument import get_metrics, get_tracer
from repro.mpisim import ClockModel, CommTracker, get_injector, payload_nbytes
from repro.mpisim.collectives import allreduce_schedule, reduce_rounds
from repro.mpisim.injection import DuplicateEnvelope

__all__ = [
    "spmd_halo_update",
    "spmd_cg",
    "spmd_pipelined_pcg",
]

_TAG_HALO = 7_000

#: The histograms a clocked run's telemetry observes into (one object per
#: name: a sampled span shares its histogram's name).
_COMPUTE, _HALO_WAIT, _COLLECTIVE_WAIT, _REDUCTION = (
    "compute", "wait.halo", "wait.collective", "reduction")
_HISTOGRAMS = frozenset((_COMPUTE, _HALO_WAIT, _COLLECTIVE_WAIT, _REDUCTION))
#: What only a traced run records besides (see :class:`_Ledger`).
_POSTED, _DELIVERED, _ROUNDS, _ITERATION = "posted", "delivered", "rounds", "iteration"

#: Streamed bytes per stored CSR entry (8 B value + 4 B column index) and
#: per vector value.
ENTRY_BYTES = 12
VALUE_BYTES = 8


def spmv_work(nnz, nrows):
    """``(flops, bytes)`` of one CSR product: stream the matrix, gather
    ``x``, write ``y``."""
    return 2 * nnz, nnz * ENTRY_BYTES + 2 * nrows * VALUE_BYTES


def vector_work(n, updates: int = 0, dots: int = 0):
    """``(flops, bytes)`` of length-``n`` vector work: each update reads two
    vectors and writes one, each dot product reads two."""
    return 2 * n * (updates + dots), n * VALUE_BYTES * (3 * updates + 2 * dots)


def pack_work(values):
    """``(flops, bytes)`` of packing ``values`` outgoing halo values: the
    gather reads and writes each once."""
    return 0, 2 * values * VALUE_BYTES


@dataclass(frozen=True)
class IterationWork:
    """One iteration of a Krylov rank program besides its one product with
    ``A`` and one ``Gᵀ(G·v)``: rank-length vector updates and dot products,
    and allreduces of ``allreduce_values`` float64 each."""

    updates: int
    dots: int
    allreduces: int
    allreduce_values: int


#: :func:`spmd_cg`: ``x``, ``r``, ``d`` updates; three scalar allreduces.
CG_ITERATION = IterationWork(updates=3, dots=3, allreduces=3, allreduce_values=1)
#: :func:`spmd_pipelined_pcg`: eight updates; three dots, one fused allreduce.
PIPELINED_ITERATION = IterationWork(updates=8, dots=3, allreduces=1, allreduce_values=3)


def _check_engine(engine: str) -> None:
    """``"events"`` names the one engine, the clocked executor, which runs
    every solve; the keyword survives because recorded callers pass it."""
    if engine == "threads":
        raise CommError(
            "engine='threads' is gone: every SPMD solve runs on the clocked "
            "executor ('events', the default)"
        )
    if engine != "events":
        raise CommError(
            f"unknown engine {engine!r}; the only engine is 'events', the clocked executor")


def _unwatched(solver: str, telemetry=None) -> None:
    """``solver`` has no faulted run: under a fault plan, a ``TelemetryError``
    if ``telemetry`` is asked for, else a ``CommError`` naming the one that has."""
    if get_injector() is not None:
        if telemetry is not None:
            from repro.observe.stream import TelemetryError  # untelemetered runs never load observe

            raise TelemetryError("telemetry= cannot be served while a fault plan watches the run")
        raise CommError(f"{solver} cannot run under a fault plan: only spmd_cg runs faulted")


def spmd_halo_update(
    mat: DistMatrix,
    x: DistVector,
    tracker: CommTracker | None = None,
    *,
    engine: str = "events",
    clock: ClockModel | None = None,
    telemetry=None,
) -> list[np.ndarray]:
    """Run the halo update alone on the clocked executor; returns halos.

    ``telemetry`` takes a :class:`repro.observe.stream.TelemetryConfig` —
    the instrumented form used to re-prove the paper's schedule invariance
    *with telemetry enabled*.  A fault plan raises :class:`CommError` (no
    faulted run).  ``engine`` accepts only ``"events"``, the clocked
    executor.
    """
    _check_engine(engine)
    _unwatched("spmd_halo_update", telemetry)
    clock = clock if clock is not None else ClockModel()
    ledger = _Ledger(mat.partition, clock, telemetry)
    exchange = _Exchange(ledger, mat)
    ledger.clocks += exchange.pack_s
    exchange.starts[1] += 1
    if ledger.traced:
        ledger.observed.append((_POSTED, exchange, ledger.clocks.copy()))
    halo = exchange._finish(ledger.clocks + clock.alpha, x.values)
    ledger.finish(mat.partition, x.values, 0, tracker)  # books traffic, telemetry, spans
    return np.split(halo, mat.schedule.halo_offsets[1:-1])


def spmd_cg(
    mat: DistMatrix,
    b: DistVector,
    *,
    rtol: float = 1e-8,
    max_iterations: int = 10_000,
    precond_pair: tuple[DistMatrix, DistMatrix] | None = None,
    tracker: CommTracker | None = None,
    engine: str = "events",
    clock: ClockModel | None = None,
) -> tuple[DistVector, int]:
    """(Preconditioned) CG fully inside the SPMD runtime.

    ``precond_pair`` is ``(G, Gᵀ)`` as row-distributed matrices; the
    preconditioner application is ``z = Gᵀ(G·r)`` — two SpMVs, as in the
    paper.  Returns the solution and the iteration count.  This mirrors
    :func:`repro.core.cg.pcg` on the clocked executor; under a fault plan
    its messages go one at a time through the plan's verdicts, and a
    :class:`~repro.resilience.RankFailure` raises
    :class:`~repro.errors.RankFailedError` at its rank's first message in
    or after its ``at_update``-th halo exchange.  ``clock`` is the run's
    :class:`~repro.mpisim.ClockModel`; ``engine`` accepts only
    ``"events"``, the clocked executor.
    """
    _check_engine(engine)
    return _clocked_cg(mat, b, rtol, max_iterations, precond_pair, tracker,
                       clock if clock is not None else ClockModel(), get_injector())[:2]


def spmd_pipelined_pcg(
    mat: DistMatrix,
    b: DistVector,
    *,
    rtol: float = 1e-8,
    max_iterations: int = 10_000,
    precond_pair: tuple[DistMatrix, DistMatrix] | None = None,
    tracker: CommTracker | None = None,
    overlap: bool = True,
    engine: str = "events",
    clock: ClockModel | None = None,
    telemetry=None,
) -> tuple[DistVector, int]:
    """Pipelined PCG fully inside the SPMD runtime, built for scale.

    The message-passing twin of :func:`repro.core.solvers.pipelined_pcg`
    with two communication optimisations on by default:

    * **fused reductions** — the three dot products of an iteration travel
      as ONE length-3 allreduce instead of three scalar allreduces: 3×
      fewer reduction messages per edge per iteration, byte-identical
      totals (auditable with :class:`~repro.mpisim.CommTracker`);
    * **overlapped SpMV** (``overlap=True``) — each halo exchange is
      posted, the local column block ``A_ll·x_local`` is computed while
      peer traffic is in flight, and only then does the rank wait — so
      summed ``spmd.halo.wait`` time drops versus the blocking exchange.

    ``clock`` is the run's :class:`~repro.mpisim.ClockModel`: with a link
    latency the overlap benefit is directly visible as reduced modeled wait
    time (the charged local compute runs inside the latency window).
    ``telemetry`` takes a :class:`repro.observe.stream.TelemetryConfig`:
    each rank's compute, halo and allreduce waits, reductions and messages
    go into bounded histograms, giving :mod:`repro.observe.conformance` its
    simulated per-phase seconds without full tracing.  There is no faulted
    run: a fault plan raises :class:`~repro.errors.CommError`, or with
    ``telemetry`` :class:`TelemetryError`.  ``engine`` accepts only
    ``"events"``, the clocked executor.
    Returns ``(solution, iterations)``; iterates match the BSP
    ``pipelined_pcg`` to roundoff (the overlapped split changes row
    summation order in the last ulps).
    """
    _check_engine(engine)
    _unwatched("spmd_pipelined_pcg", telemetry)
    return _clocked_pipelined_pcg(mat, b, rtol, max_iterations, precond_pair, tracker,
                                  overlap, clock if clock is not None else ClockModel(),
                                  telemetry)[:2]


# -- the clocked executor -----------------------------------------------
def _dot_groups(sizes: np.ndarray, row_offsets: np.ndarray) -> list[tuple]:
    """The ranks of each distinct length, for :meth:`_Ledger.dots`: one
    ``(ranks, rows, row shape, column shape)`` per length, ``ranks`` and
    ``rows`` (the group's positions in a rank-ordered vector) slices when
    the group's ranks are consecutive, index arrays otherwise."""
    lengths, which, counts = np.unique(sizes, return_inverse=True, return_counts=True)
    ranks_by_length = np.split(np.argsort(which, kind="stable"), np.cumsum(counts)[:-1])
    groups = []
    for length, ranks in zip(lengths.tolist(), ranks_by_length):
        g, lo = ranks.size, int(ranks[0])
        if ranks[-1] - lo + 1 == g:  # consecutive: a free reshape of the vector
            start = int(row_offsets[lo])
            ranks, rows = slice(lo, lo + g), slice(start, start + g * length)
        else:  # one gather
            rows = (row_offsets[ranks][:, None] + np.arange(length)).reshape(-1)
        groups.append((ranks, rows, (g, 1, length), (g, length, 1)))
    return groups


class _Ledger:
    """Every rank's modeled clock in a clocked run, and its traffic; with
    ``telemetry`` or the tracer on, a record of the run too (``observed``),
    in program order, an entry per operation for all ranks at once.
    Telemetry reads ``(_COMPUTE, ranks, seconds, ends, None, kernel)``, a
    charge (in the ``spmd.compute`` span of ``kernel``, or ``None``: no
    span); ``(_HALO_WAIT | _COLLECTIVE_WAIT, ranks, seconds, ends,
    sources)``, late receives; ``(_REDUCTION, everyone, seconds, ends,
    None)``, an allreduce.  The tracer reads the charges and reductions and,
    recorded only when traced: ``(_POSTED, exchange, packed)``, the packs,
    ending at ``packed`` where the sends leave; ``(_DELIVERED, exchange,
    arrival)``; ``(_ROUNDS, log, nbytes, fused)``, an allreduce's start and
    rounds (``log`` of ``(dests, their clocks, arrival, sources, sender
    clocks)``, ``fused`` its dots or ``None``: untagged); ``(_ITERATION,
    index)`` and ``(_ITERATION, None)``, an iteration's start and end.
    Under a fault plan each message leaves at its own clock with its own
    bytes on the wire: a ``_DELIVERED`` entry ends with each message's
    ``sent, wire`` (its sends follow the deliveries' record, not the
    packs'), and each round of ``log`` with its ``wire``.
    """

    def __init__(self, part, clock, telemetry=None, fused: bool = False):
        self.clock, self.clocks = clock, np.zeros(part.nparts)
        self.sizes = part.sizes()
        self.row_offsets = np.zeros(part.nparts + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=self.row_offsets[1:])
        self.groups = _dot_groups(self.sizes, self.row_offsets)
        self.reduced: list[int] = []  # the bytes of each allreduce
        self.halos: dict[int, list] = {}  # id(schedule) -> [schedule, starts]
        self.telemetry, self.everyone = telemetry, np.arange(part.nparts)
        # the run's tracer and metrics, resolved once
        self.tracer, self.metrics = get_tracer(), get_metrics()
        self.traced, self.fused = self.tracer.enabled, fused
        self.observed: list | None = [] if telemetry is not None or self.traced else None
        if self.traced:  # one track a rank, numbered as the engine numbers them
            self.now = [0.0]
            stamp = partial(self.now.__getitem__, 0)
            self.tracks = [self.tracer.task(r, stamp) for r in range(part.nparts)]

    def dots(self, seconds: np.ndarray, *pairs) -> list[float]:
        """Each rank's dot product of its part of each pair of vectors,
        allreduced.  A group of equal-length ranks is one stacked
        ``matmul``, which computes each rank's product with the dot kernel
        ``ndarray.dot`` runs, so every partial is bitwise the rank
        program's."""
        partials = np.empty((self.sizes.size, len(pairs)))
        for ranks, rows, row, column in self.groups:
            for k, (u, v) in enumerate(pairs):
                partials[ranks, k] = np.matmul(u[rows].reshape(row),
                                               v[rows].reshape(column)).reshape(-1)
        self.clocks += seconds
        self.reduced.append(partials[0].nbytes)
        if self.observed is None:
            reduce_rounds(self.clocks, partials, self.clock.alpha, self.clock.beta,
                          self.reduced[-1])
        else:
            self.computed(seconds)
            start, log = self.clocks.copy(), []
            if self.traced:  # the allreduce starts; ``log`` fills with its rounds
                self.observed.append((_ROUNDS, log, self.reduced[-1],
                                      len(pairs) if self.fused else None))
            reduce_rounds(self.clocks, partials, self.clock.alpha, self.clock.beta,
                          self.reduced[-1], log)
            self.waited(_COLLECTIVE_WAIT, log)
            self.observed.append((_REDUCTION, self.everyone, self.clocks - start,
                                  self.clocks.copy(), None))
        return partials[0].tolist()

    def computed(self, seconds: np.ndarray, ranks: np.ndarray | None = None,
                 kernel: str | None = None) -> None:
        """Observe the charge of ``seconds`` just made (on ``ranks``)."""
        ranks = self.everyone if ranks is None else ranks
        self.observed.append((_COMPUTE, ranks, seconds[ranks], self.clocks[ranks], None,
                              kernel))

    def waited(self, name: str, log: list) -> None:
        """Observe the late ones of a log of receives, each ``(ranks, their
        clocks, arrival, sources, …)`` (a rank once), in order."""
        for ranks, start, arrival, sources, *_ in log:
            late = arrival > start
            seconds = (arrival - start)[late]
            if seconds.size:  # an attribute: ``late.any()`` would be a Python call
                self.observed.append((name, ranks[late], seconds, arrival[late],
                                      sources[late]))

    def finish(self, part, x: np.ndarray, iterations: int, tracker):
        """Book the traffic as the engine does, the telemetry and the
        spans; solution, iterations, clocks."""
        if tracker is not None:
            book_bulk(tracker, self.sizes.size, len(self.reduced), sum(self.reduced),
                      self.halos.values())
        if self.telemetry is not None:
            observed = ([entry for entry in self.observed if entry[0] in _HISTOGRAMS]
                        if self.traced else self.observed)
            self.telemetry.aggregate(self.sizes.size, observed, self.messages(), tracker)
        if self.traced:
            _trace(self)
        return DistVector.from_values(part, x), iterations, self.clocks

    def messages(self) -> list:
        """``(senders, nbytes, repeats)`` of the run's messages, as
        :func:`book_bulk` counts them."""
        rounds = np.concatenate([np.empty(0, np.intp)] + [
            src for src, *_ in allreduce_schedule(self.sizes.size)])
        halos = [(s.messages, n) for s, n in self.halos.values() if n]
        return [(rounds, np.full(rounds.size, b), np.full(rounds.size, n))
                for b, n in zip(*np.unique(self.reduced, return_counts=True))] + [
            (senders, nbytes, np.full(senders.size, n)) for (senders, _, nbytes), n in halos]


def book_bulk(tracker: CommTracker, size: int, calls: int, nbytes: int, halos) -> None:
    """Book into ``tracker`` the messages of a run on ``size`` ranks, as
    the engine counts them: one per round edge per allreduce (``calls``
    allreduces of ``nbytes`` operand bytes in all), and one per non-empty
    halo edge per exchange (``halos``: ``(schedule, exchanges)`` pairs).
    The engine books rank after rank, each rank's edges in the order it
    first sent on them; so does this, in one pass."""
    none = np.empty(0, np.intp)
    rounds = [(src, dst) for src, dst, _, _ in (allreduce_schedule(size) if calls else ())]
    reducing = np.concatenate([none, *[src for src, _ in rounds]])
    traffic = [(reducing, np.concatenate([none, *[dst for _, dst in rounds]]),
                np.full(reducing.size, calls), np.full(reducing.size, nbytes))] + [
        (src, dst, np.full(src.size, n), n * total)
        for (src, dst, total), n in [(s.messages, n) for s, n in halos if n]
    ]
    src, dst, messages, total = (np.concatenate(column) for column in zip(*traffic))
    edges, first, which = np.unique(src * size + dst, return_index=True, return_inverse=True)
    counts, sums = np.zeros(edges.size, np.int64), np.zeros(edges.size, np.int64)
    np.add.at(counts, which, messages)
    np.add.at(sums, which, total)
    order = np.lexsort((first, edges // size))
    edges = edges[order]
    tracker.merge_p2p_many((edges // size).tolist(), (edges % size).tolist(),
                           counts[order].tolist(), sums[order].tolist())


#: The kernels of a traced run's ``spmd.compute`` spans, and what a row of
#: a rank's stream in :func:`_trace` does.
_KERNELS = ("spmv", "spmv_local", "spmv_halo", "axpy")
_KERNEL, _PACK, _SEND, _HALO, _RECV, _OPEN, _CLOSE, _STEP = range(8)


def _streams(ledger: _Ledger) -> list[np.ndarray]:
    """A traced run's record as rows ``(rank, what, time, peer, tag,
    value)``, each rank's in its program order."""
    rows, everyone = [], ledger.everyone

    def add(ranks, what, time=np.nan, peer=-1, tag=0, value=0):
        rows.append((ranks, *(np.broadcast_to(column, len(ranks))
                              for column in (what, time, peer, tag, value))))

    for name, *entry in ledger.observed:
        if name == _COMPUTE:  # value: the kernel's span, or -1 (none)
            ranks, _, ends, _, kernel = entry
            add(ranks, _KERNEL, ends, value=-1 if kernel is None else _KERNELS.index(kernel))
        elif name == _POSTED:  # the packs, then each rank's sends by receiver
            (src, dst, nbytes), packed = entry[0].messages, entry[1]
            add(everyone, _PACK, packed,
                value=np.bincount(src, nbytes, everyone.size).astype(int))
            if not isinstance(entry[0], _FaultedExchange):  # else: with the deliveries
                add(src, _SEND, packed[src], dst, _TAG_HALO, nbytes)
        elif name == _DELIVERED:
            (src, dst, nbytes), arrival, *sends = entry[0].messages, *entry[1:]
            if sends:  # a faulted exchange's: each as it left, with its wire bytes
                add(src, _SEND, sends[0], dst, _TAG_HALO, sends[1])
            add(dst, _HALO, arrival, src, _TAG_HALO, nbytes)
        elif name == _ROUNDS:  # in a round, a rank sends before it receives
            log, nbytes, fused = entry
            add(everyone, _OPEN, value=-1 if fused is None else fused)
            for (dst, _, arrival, src, sent, *wire), (*_, tag, _) in zip(
                    log, allreduce_schedule(everyone.size)):
                add(src, _SEND, sent, dst, tag, wire[0] if wire else nbytes)
                add(dst, _RECV, arrival, src, tag)
        elif name == _REDUCTION:
            add(everyone, _CLOSE, entry[2])
        elif name == _ITERATION:
            add(everyone, _STEP, value=-1 if entry[0] is None else entry[0])
    columns = [np.concatenate(column) for column in zip(*rows)]
    order = np.argsort(columns[0], kind="stable")
    return [column[order] for column in columns]


def _trace(ledger: _Ledger) -> None:
    """Emit a traced run's spans and message counters from its record.

    Each rank's spans go on its own track (``tracer.task(rank, …)``, made
    in rank order), as its rank program emits them on the engine, except
    the receives' instant events (they carry no time) and the waits of
    receives whose message had arrived.  Ranks are emitted one after
    another, each in program order, so spans at equal modeled instants are
    ordered by (clock, rank, sequence) in ``tracer.spans``.
    """
    rank, what, time, peer, tag, value = _streams(ledger)
    tracer, now = ledger.tracer, ledger.now

    def opened(name: str, **tags):
        context = tracer.span(name, **tags)
        context.__enter__()
        return context

    def spanned(name: str, end: float, **tags) -> None:
        with tracer.span(name, **tags):
            now[0] = end

    bounds = np.cumsum(np.bincount(rank, minlength=ledger.everyone.size)).tolist()
    outer, lo = tracer.activate(ledger.tracks[0]), 0
    try:
        for p, hi in enumerate(bounds):
            tracer.activate(ledger.tracks[p])
            now[0] = 0.0
            stack = [opened("spmd.rank", rank=p)]
            for w, t, q, g, v in zip(*(column[lo:hi].tolist()
                                       for column in (what, time, peer, tag, value))):
                if w == _KERNEL and v < 0:
                    now[0] = t
                elif w == _KERNEL:
                    spanned("spmd.compute", t, rank=p, kernel=_KERNELS[v])
                elif w == _SEND:
                    now[0] = t  # the sender's clock, where its walk stands
                    tracer.event("mpisim.send", src=p, dst=q, tag=g, bytes=v)
                elif w == _HALO:
                    with tracer.span("spmd.halo.wait", rank=p, src=q, bytes=v):
                        if t > now[0]:
                            spanned("mpisim.wait", t, rank=p, src=q, tag=g)
                elif w == _RECV:
                    if t > now[0]:
                        spanned("mpisim.wait", t, rank=p, src=q, tag=g)
                elif w == _PACK:
                    spanned("spmd.halo.pack", t, rank=p, bytes=v)
                elif w == _OPEN:
                    stack.append(opened("spmd.reduction", rank=p) if v < 0
                                 else opened("spmd.reduction", rank=p, fused=v))
                    stack.append(opened("mpisim.allreduce", rank=p))
                elif w == _CLOSE:
                    now[0] = t
                    stack.pop().__exit__(None, None, None)
                    stack.pop().__exit__(None, None, None)
                elif v >= 0:  # a _STEP: iteration ``v`` starts, or (-1) ends
                    stack.append(opened("spmd.iteration", rank=p, index=v))
                else:
                    stack.pop().__exit__(None, None, None)
            lo, now[0] = hi, float(ledger.clocks[p])
            while stack:  # a solve that stopped inside an iteration ends it here
                stack.pop().__exit__(None, None, None)
    finally:
        tracer.activate(outer)
    sends = what == _SEND
    if sends.any():
        ledger.metrics.counter("mpisim.messages").inc(int(sends.sum()))
        ledger.metrics.counter("mpisim.bytes").inc(int(value[sends].sum()))


class _Exchange:
    """One matrix's halo exchanges in a clocked run: a receiving rank's
    clock becomes ``max(own, post + β·bytes)`` over its sources, one
    segment max over the messages, which come by receiver (observed, one
    receive at a time in ``recv_from`` order)."""

    def __init__(self, ledger: _Ledger, mat: DistMatrix):
        sched = mat.schedule
        self.ledger = ledger
        self.src, receivers, nbytes = self.messages = sched.messages
        self.link = ledger.clock.beta * nbytes
        self.dests, self.segments = np.unique(receivers, return_index=True)
        self.starts = ledger.halos.setdefault(id(sched), [sched, 0])
        self.pack_s = ledger.clock.kernel_seconds(*pack_work(sched.send_sizes()))
        self.source = sched._source_positions()
        self.halo = np.empty(int(sched.halo_offsets[-1]))
        if ledger.observed is not None:
            # each receiving rank's k-th incoming edge, for every k
            degree = np.diff(self.segments, append=receivers.size)
            self.receives = [(self.segments[degree > k] + k, self.dests[degree > k])
                             for k in range(degree.max(initial=0))]

    def _finish(self, post: np.ndarray, v: np.ndarray) -> np.ndarray:
        clocks = self.ledger.clocks
        if self.ledger.observed is None:
            arrival = np.maximum.reduceat(post[self.src] + self.link, self.segments)
            clocks[self.dests] = np.maximum(clocks[self.dests], arrival)
        else:
            arrival, log = post[self.src] + self.link, []
            for edges, ranks in self.receives:
                start, arrived = clocks[ranks], arrival[edges]
                log.append((ranks, start, arrived, self.src[edges]))
                clocks[ranks] = np.maximum(start, arrived)
            self.ledger.waited(_HALO_WAIT, log)
            if self.ledger.traced:
                self.ledger.observed.append((_DELIVERED, self, arrival))
        return v.take(self.source, out=self.halo, mode="clip")  # in range: no buffer


class _Product(_Exchange):
    """One matrix's products in a clocked run, with the rank programs'
    charges in their order."""

    def __init__(self, ledger: _Ledger, mat: DistMatrix, overlap: bool):
        super().__init__(ledger, mat)
        self.n, seconds = mat.shape[0], ledger.clock.kernel_seconds
        n_halo = np.diff(mat.schedule.halo_offsets)
        self.haloed = np.flatnonzero(n_halo)

        def priced(plan):  # the plan and every rank's seconds of one product
            nnz = np.diff(plan.mat.indptr[ledger.row_offsets])
            return plan, seconds(*spmv_work(nnz, ledger.sizes))

        if overlap:  # a rank without halo: empty A_lh rows, charged 0.0 s
            a_ll, a_lh = mat.split_operator()
            self.local = priced(a_ll)
            a_lh, remote_s = priced(a_lh)
            self.remote = a_lh, np.where(n_halo > 0, remote_s, 0.0)
            self.operand, self.fused = None, None
        else:
            self.fused = priced(mat.operator())
            self.operand = np.empty(self.n + self.halo.size)
            self.halo = self.operand[self.n:]

    def product(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A product with the rank programs' charges, in their order."""
        ledger = self.ledger
        ledger.clocks += self.pack_s
        self.starts[1] += 1
        if ledger.traced:
            ledger.observed.append((_POSTED, self, ledger.clocks.copy()))
        post = ledger.clocks + ledger.clock.alpha
        if self.fused is not None:
            self._finish(post, v)
            plan, seconds = self.fused
            self.operand[: self.n] = v
            y = plan.spmv(self.operand, out)
            ranks, kernel = None, "spmv"
        else:
            plan, seconds = self.local
            y = plan.spmv(v, out)
            ledger.clocks += seconds
            if ledger.observed is not None:
                ledger.computed(seconds, kernel="spmv_local")
            plan, seconds = self.remote
            y += plan.spmv(self._finish(post, v))
            ranks, kernel = self.haloed, "spmv_halo"
        ledger.clocks += seconds
        if ledger.observed is not None:
            ledger.computed(seconds, ranks, kernel)
        return y


class _FaultedLedger(_Ledger):
    """The ledger of a run under a fault plan: its messages go one at a time,
    each rank's in its program order, through the plan's verdicts.

    Each verdict is a pure function of ``(seed, src, dst, tag, per-edge
    sequence)``, and a rank's clock of its own program order, so sending
    every rank's messages of one step (a halo exchange, an allreduce round)
    before any of its receives computes what one coroutine per rank would:
    on entry to every send and receive a failure raises
    :class:`~repro.errors.RankFailedError` and a due stall advances the
    rank's clock; a drop, or a delay past ``message_timeout``, is a retry
    with linear back-off on the sender's clock, and past ``max_retries`` a
    ``CommError``; a shorter delay moves the sender's clock; a bit flip
    corrupts the received copy of a halo message (a reduction's partial is
    a Python float, which the plan does not corrupt); a duplicate's extra
    copy, enveloped and sent first, is the one received, and the tracker
    books the original at its envelope's size.  The traffic is booked rank
    after rank, each rank's edges in the order it first sent on them."""

    def __init__(self, part, clock, injector):
        super().__init__(part, clock)
        self.injector = injector
        self.edges = [{} for _ in range(part.nparts)]  # per sender: dest -> [messages, bytes]

    def dots(self, seconds: np.ndarray, *pairs) -> list[float]:
        """:meth:`_Ledger.dots` with the allreduce's messages sent one at a
        time, round after round (``spmd_cg``'s: one Python float a rank)."""
        partials = np.empty((self.sizes.size, len(pairs)))
        for ranks, rows, row, column in self.groups:
            for k, (u, v) in enumerate(pairs):
                partials[ranks, k] = np.matmul(u[rows].reshape(row),
                                               v[rows].reshape(column)).reshape(-1)
        self.clocks += seconds
        self.reduced.append(partials[0].nbytes)
        log, clocks = [], self.clocks
        if self.traced:
            self.computed(seconds)
            self.observed.append((_ROUNDS, log, self.reduced[-1], None))
        for src, dst, tag, combines in allreduce_schedule(self.sizes.size):
            arrival, sent = np.empty(src.size), np.empty(src.size)
            wire = np.empty(src.size, np.int64)
            for i in np.argsort(src).tolist():  # the sends, in rank order
                p = int(src[i])
                arrival[i], wire[i] = self.send(p, int(dst[i]), tag, float(partials[p, 0]),
                                                self.reduced[-1])
                sent[i] = clocks[p]
            log.append((dst, clocks[dst], arrival, src, sent, wire))
            for q, t in zip(dst.tolist(), arrival.tolist()):
                self.faults(q)
                if t > clocks[q]:
                    clocks[q] = t
            partials[dst] = partials[dst] + partials[src] if combines else partials[src]
        if self.traced:
            self.observed.append((_REDUCTION, self.everyone, None, clocks.copy(), None))
        return partials[0].tolist()

    def faults(self, p: int) -> None:
        """On entry to each of rank ``p``'s sends and receives: a failure
        raises, a due stall advances its clock."""
        injector = self.injector
        if injector.rank_failed(p):
            raise RankFailedError(p)
        seconds = injector.consume_stall(p)
        if seconds > 0:
            self.metrics.counter("resilience.stalls").inc()
            self.emit(p, "resilience.stall", seconds, rank=p, seconds=seconds)

    def emit(self, p: int, name: str, charge: float | None = None, **tags) -> None:
        """A fault's instant event on rank ``p``'s track, or its span
        charging ``charge`` seconds to ``p``'s clock."""
        clocks, tracer = self.clocks, self.tracer
        if not self.traced:
            if charge is not None:
                clocks[p] += charge
            return
        outer, self.now[0] = tracer.activate(self.tracks[p]), float(clocks[p])
        if charge is None:
            tracer.event(name, **tags)
        else:
            with tracer.span(name, **tags):
                clocks[p] += charge
                self.now[0] = float(clocks[p])
        tracer.activate(outer)

    def send(self, p: int, q: int, tag: int, payload, nbytes: int) -> tuple[float, int]:
        """Send one message of ``nbytes`` from rank ``p`` to ``q`` through the
        plan; books it and returns when the received copy arrives and its
        bytes on the wire (a duplicate's envelope's).  A bit flip corrupts
        ``payload`` in place."""
        self.faults(p)
        injector, plan, metrics, clocks = self.injector, self.injector.plan, self.metrics, self.clocks
        attempts = 0
        while True:
            verdict = injector.message_verdict(p, q, tag)
            if not (verdict.dropped or verdict.delay_s > plan.message_timeout):
                break
            attempts += 1
            injector.record_retry()
            metrics.counter("mpisim.retries", rank=p).inc()
            self.emit(p, "resilience.retry", src=p, dst=q, attempt=attempts,
                      cause="drop" if verdict.dropped else "timeout")
            if attempts > plan.max_retries:
                metrics.counter("mpisim.timeouts", rank=p).inc()
                lost = CommError(f"send {p}->{q} (tag {tag}) lost {attempts} times "
                                 f"(max_retries={plan.max_retries}); giving up")
                raise CommError(f"rank {p} failed: {lost!r}") from lost
            self.emit(p, "resilience.backoff", plan.backoff * attempts, src=p, dst=q,
                      attempt=attempts)
        if verdict.delay_s > 0:
            self.emit(p, "resilience.delay", verdict.delay_s, src=p, dst=q,
                      seconds=verdict.delay_s)
        if verdict.flip_bit is not None:
            injector.corrupt(payload, verdict)
            metrics.counter("resilience.bitflips").inc()
            self.emit(p, "resilience.bitflip", src=p, dst=q, bit=verdict.flip_bit)
        arrival = clocks[p] + self.clock.alpha
        if verdict.duplicated:
            seq = injector.next_duplicate_seq(p, q)
            enveloped = payload_nbytes(DuplicateEnvelope(seq, payload))
            metrics.counter("mpisim.dup_messages").inc()
            self.emit(p, "resilience.duplicate", src=p, dst=q, seq=seq)
            nbytes, arrival = enveloped, clocks[p] + self.clock.message_seconds(enveloped)
        elif self.clock.beta:
            arrival += self.clock.beta * nbytes
        edge = self.edges[p].setdefault(q, [0, 0])
        edge[0] += 1
        edge[1] += nbytes
        return arrival, nbytes

    def finish(self, part, x: np.ndarray, iterations: int, tracker):
        if tracker is not None:
            for p, edges in enumerate(self.edges):
                tracker.merge_p2p(p, edges)
        return super().finish(part, x, iterations, None)


class _FaultedExchange(_Exchange):
    """One matrix's halo exchanges under a fault plan: each starts a halo
    update (``injector.begin_update()``), then every rank sends, each to
    its receivers in ascending order, then every rank receives, each from
    its sources in ascending order (``recv_from``)."""

    def _finish(self, post: np.ndarray, v: np.ndarray) -> np.ndarray:
        ledger, sched = self.ledger, self.starts[0]  # starts: [schedule, exchanges]
        ledger.injector.begin_update()
        halo, clocks = v.take(self.source, out=self.halo, mode="clip"), ledger.clocks
        src, dst, nbytes = (column.tolist() for column in self.messages)
        arrival, sent = np.empty(len(src)), np.empty(len(src))
        wire = np.empty(len(src), np.int64)
        for i in np.lexsort((dst, src)).tolist():
            p, q = src[i], dst[i]
            at = int(sched.halo_offsets[q]) + sched.recv_pos[q][p]
            payload = halo[at]
            arrival[i], wire[i] = ledger.send(p, q, _TAG_HALO, payload, nbytes[i])
            sent[i] = clocks[p]
            halo[at] = payload  # as received: possibly bit-flipped
        for i, q in enumerate(dst):
            ledger.faults(q)
            if arrival[i] > clocks[q]:
                clocks[q] = arrival[i]
        if ledger.traced:  # the sends left after their senders' faults, not at the pack
            ledger.observed.append((_DELIVERED, self, arrival, sent, wire))
        return halo


class _FaultedProduct(_FaultedExchange, _Product):
    """:class:`_Product` over :class:`_FaultedExchange`."""


def _clocked_cg(mat, b, rtol, max_iterations, precond_pair, tracker, clock, injector=None):
    """``spmd_cg``'s rank program over all ranks, on whole vectors; under
    ``injector``'s fault plan on a :class:`_FaultedLedger`."""
    part = mat.partition
    ledger = _Ledger(part, clock) if injector is None else _FaultedLedger(part, clock, injector)
    product = _Product if injector is None else _FaultedProduct
    dot_s, axpy_s, update_s = (clock.kernel_seconds(*vector_work(ledger.sizes, **w))
                               for w in ({"dots": 1}, {"updates": 2}, {"updates": 1}))
    a = product(ledger, mat, overlap=False)
    pre = precond_pair and [product(ledger, m, overlap=False) for m in precond_pair]
    x, r = np.zeros(part.nrows), b.values.copy()
    z, d, ad = np.empty(part.nrows), np.empty(part.nrows), np.empty(part.nrows)

    def gdot(u, v) -> float:
        return ledger.dots(dot_s, (u, v))[0]

    def apply_precond(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        if pre is None:
            np.copyto(out, v)
            return out
        return pre[1].product(pre[0].product(v), out)

    norm0 = np.sqrt(gdot(r, r))
    if norm0 == 0.0:
        return ledger.finish(part, x, 0, tracker)
    np.copyto(d, apply_precond(r, z))
    rz = gdot(r, z)
    iterations = 0
    for _ in range(max_iterations):
        if np.sqrt(gdot(r, r)) <= rtol * norm0:
            break
        if ledger.traced:
            ledger.observed.append((_ITERATION, iterations))
        a.product(d, ad)
        dad = gdot(d, ad)
        if dad <= 0 or not np.isfinite(dad):
            break  # not SPD, or breakdown
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        ledger.clocks += axpy_s
        if ledger.observed is not None:
            ledger.computed(axpy_s, kernel="axpy")
        apply_precond(r, z)
        rz_new = gdot(r, z)
        beta = rz_new / rz
        rz = rz_new
        np.add(z, beta * d, out=d)
        ledger.clocks += update_s
        if ledger.observed is not None:
            ledger.computed(update_s)
            if ledger.traced:
                ledger.observed.append((_ITERATION, None))
        iterations += 1
    return ledger.finish(part, x, iterations, tracker)


def _clocked_pipelined_pcg(mat, b, rtol, max_iterations, precond_pair, tracker, overlap, clock,
                           telemetry=None):
    """``spmd_pipelined_pcg``'s rank program over all ranks, as
    :func:`_clocked_cg`."""
    part = mat.partition
    ledger = _Ledger(part, clock, telemetry, fused=True)
    dots_s = [clock.kernel_seconds(*vector_work(ledger.sizes, dots=k)) for k in range(4)]
    update_s = clock.kernel_seconds(*vector_work(ledger.sizes, updates=4))
    a = _Product(ledger, mat, overlap)
    pre = precond_pair and [_Product(ledger, m, overlap) for m in precond_pair]

    def apply_precond(v: np.ndarray) -> np.ndarray:
        return v.copy() if pre is None else pre[1].product(pre[0].product(v))

    x, r = np.zeros(part.nrows), b.values.copy()
    (norm0_sq,) = ledger.dots(dots_s[1], (r, r))
    norm0 = float(np.sqrt(max(norm0_sq, 0.0)))
    if norm0 == 0.0:
        return ledger.finish(part, x, 0, tracker)
    target = rtol * norm0
    u = apply_precond(r)
    w = a.product(u)
    gamma, delta = ledger.dots(dots_s[2], (r, u), (w, u))
    m_w = apply_precond(w)
    n_vec = a.product(m_w)
    z, q, pd, s = n_vec.copy(), m_w.copy(), u.copy(), w.copy()
    alpha = gamma / delta if delta != 0 else 0.0
    res = norm0
    iterations = 0
    for _ in range(max_iterations):
        if res <= target or delta == 0 or not np.isfinite(alpha):
            break
        if ledger.traced:
            ledger.observed.append((_ITERATION, iterations))
        x += alpha * pd
        r -= alpha * s
        u -= alpha * q
        w -= alpha * z
        ledger.clocks += update_s
        if ledger.observed is not None:
            ledger.computed(update_s, kernel="axpy")
        rr, gamma_new, delta = ledger.dots(dots_s[3], (r, r), (r, u), (w, u))
        res = float(np.sqrt(max(rr, 0.0)))
        iterations += 1
        if res <= target:
            break
        m_w = apply_precond(w)
        n_vec = a.product(m_w)
        beta = gamma_new / gamma if gamma != 0 else 0.0
        gamma = gamma_new
        denom = delta - beta * gamma / alpha if alpha != 0 else delta
        alpha = gamma / denom if denom != 0 else 0.0
        z = n_vec + beta * z
        q = m_w + beta * q
        pd = u + beta * pd
        s = w + beta * s
        ledger.clocks += update_s
        if ledger.observed is not None:
            ledger.computed(update_s, kernel="axpy")
            if ledger.traced:
                ledger.observed.append((_ITERATION, None))
    return ledger.finish(part, x, iterations, tracker)
