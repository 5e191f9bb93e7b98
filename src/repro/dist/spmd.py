"""SPMD execution of the distributed kernels on the mpisim runtime.

The BSP layer (:class:`~repro.dist.matrix.DistMatrix`) applies operations
rank-by-rank in the driver — deterministic and fast.  This module runs the
*same* data structures as rank programs on :func:`repro.mpisim.run_spmd`:
a halo update is one ``irecv`` and one ``send`` per edge and a reduction
the engine's point-to-point allreduce: real messages, which the tracker,
the tracer and a fault injector each see.

The rank programs here are coroutines (``async def``; see
:mod:`repro.mpisim`): they ``await`` receives, request completion and
collectives, and charge each rank-local kernel's *modeled* cost to the
rank's clock — nothing reads the host's clock.  The functions callers use
(:func:`spmd_cg`, …) stay plain and run the rank program on ``run_spmd``
only while a fault injector or the tracer watches.  Otherwise the *clocked
executor* (the end of this module) runs its statements once over all ranks
with a :class:`_Ledger` of every rank's clock, bitwise the engine, and
with no Python per rank: every rank's kernels are priced at once, each
group of equal-length ranks' dot partials is one stacked ``matmul`` (the
dot kernel ``ndarray.dot`` runs, rank by rank), summed by the allreduce's
rounds over all ranks at once
(:func:`repro.mpisim.collectives.reduce_rounds`), and its traffic is booked
in bulk when the solve ends (:func:`book_bulk`), as is its telemetry.  The
rank programs, which share none of that arithmetic, are the executor's
oracle.

A rank program holds one :class:`_Rank` — the tracer, resolved once (the
per-kernel spans open only while it is enabled), and the clock charge —
and per matrix a :class:`_Block`, built when the program starts: the
compiled plans (:class:`~repro.kernels.plan.SpMVPlan`) of the rank's block
(the fused block, or ``A_ll`` / ``A_lh`` when overlapped), its
``[x_local | halo]`` operand buffer and the modeled seconds of its
products.  Every product is one call of the compiled CSR loop the
BSP solvers run, which sums each row strictly left to right in stored
order: a fused rank product equals that rank's rows of
:meth:`DistMatrix.operator`'s product bitwise (the NumPy reference
:meth:`CSRMatrix.spmv` did not, so the solutions moved in the last bits).
Kernel seconds are computed once per rank; each charge adds the same float
a per-call computation gave, so the modeled clocks are unchanged by it.

The work of a kernel (:func:`spmv_work`, :func:`vector_work`,
:func:`pack_work`) and of an iteration (:data:`CG_ITERATION`,
:data:`PIPELINED_ITERATION`) is defined once, here: the rank programs
charge it and :class:`repro.perfmodel.CostModel` predicts from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.dist.matrix import DistMatrix
from repro.dist.vector import DistVector
from repro.errors import CommError
from repro.instrument import get_tracer
from repro.kernels.plan import SpMVPlan
from repro.mpisim import ClockModel, Comm, CommTracker, get_injector, run_spmd
from repro.mpisim.collectives import allreduce_schedule, reduce_rounds

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
    """The SPMD runtime has one engine, the event-driven scheduler; the
    keyword survives because recorded callers pass it."""
    if engine == "threads":
        raise CommError(
            "engine='threads' is gone: the SPMD runtime has one engine, the "
            "single-threaded event-driven scheduler ('events', the default)"
        )
    if engine != "events":
        raise CommError(f"unknown engine {engine!r}; the only engine is 'events'")


def _watched(telemetry=None) -> bool:
    """A fault plan or the tracer watches each message, so the run takes
    the engine, which carries no telemetry."""
    watchers = " and ".join(name for name, on in (
        ("the tracer", get_tracer().enabled), ("a fault plan", get_injector() is not None)) if on)
    if watchers and telemetry is not None:
        from repro.observe.stream import TelemetryError  # untelemetered runs never load observe

        raise TelemetryError(f"telemetry= cannot be served while {watchers} watches the run")
    return bool(watchers)


def _halo_exchange_start(comm: Comm, mat: DistMatrix, x_local: np.ndarray):
    """Post one rank's halo exchange; complete with ``_halo_exchange_finish``.

    The caller can run local compute between start and finish, overlapping
    it with the other ranks' exchanges.  Nothing here can block, so this
    is a plain function: one ``irecv`` per incoming edge, a
    ``spmd.halo.pack`` span tagged with the payload bytes, whose charge is
    the gather's streamed bytes, and one send per outgoing edge.
    """
    p = comm.rank
    sched = mat.schedule
    part = mat.partition
    tracer = get_tracer()
    reqs = [
        (q, comm.irecv(q, _TAG_HALO))
        for q, ids in sched.recv_from[p].items()
        if ids.size
    ]
    with tracer.span("spmd.halo.pack", rank=p) as pack:
        sends = [
            (x_local[part.local_index[ids]], q)
            for q, ids in sched.send_to[p].items()
            if ids.size
        ]
        packed = sum(payload.size for payload, _ in sends)
        comm.advance(comm.clock.kernel_seconds(*pack_work(packed)))
        pack.set_tag("bytes", packed * VALUE_BYTES)
    for payload, q in sends:
        comm.send(payload, q, _TAG_HALO)
    return reqs


async def _halo_exchange_finish(
    comm: Comm, mat: DistMatrix, pending, halo: np.ndarray
) -> np.ndarray:
    """Complete a posted halo exchange into the rank's ``halo`` buffer.

    Each incoming edge's completion is a ``spmd.halo.wait`` span (tagged
    with the awaited source and payload bytes) — the segments the timeline
    layer classifies as wait time, and overlap shrinks.
    """
    p = comm.rank
    sched = mat.schedule
    tracer = get_tracer()
    for q, req in pending:
        if tracer.enabled:
            with tracer.span(
                "spmd.halo.wait", rank=p, src=q,
                bytes=VALUE_BYTES * int(sched.recv_from[p][q].size),
            ):
                values = await req.wait()
        else:
            values = await req.wait()
        halo[sched.recv_pos[p][q]] = values
    return halo


async def _halo_exchange(
    comm: Comm, mat: DistMatrix, x_local: np.ndarray, halo: np.ndarray
) -> np.ndarray:
    """One rank's side of the halo update, into its ``halo`` buffer."""
    return await _halo_exchange_finish(
        comm, mat, _halo_exchange_start(comm, mat, x_local), halo
    )


class _Block:
    """One rank's block of one matrix in a run: its compiled plans, its
    ``[x_local | halo]`` operand buffer and halo view, and the modeled
    seconds of its products."""

    __slots__ = ("mat", "n_local", "fused", "local", "remote", "operand", "halo")

    def __init__(self, comm: Comm, mat: DistMatrix, overlap: bool):
        p, seconds = comm.rank, comm.clock.kernel_seconds
        lm = mat.locals[p]
        self.mat, self.n_local = mat, lm.n_local

        def priced(block):  # the plan and the modeled seconds of one product
            return SpMVPlan(block), seconds(*spmv_work(block.nnz, block.nrows))

        if overlap:
            a_ll, a_lh = mat.split_blocks()[p]
            self.fused, self.local = None, priced(a_ll)
            self.remote = priced(a_lh) if a_lh is not None else (None, 0.0)
        else:
            self.fused, self.local, self.remote = priced(lm.csr), None, None
        self.operand = np.zeros(lm.n_local + lm.n_halo, dtype=np.float64)
        self.halo = self.operand[lm.n_local:]


class _Rank:
    """One rank's side of a solve: the tracer, resolved once, the clock
    charge, and the products over the rank's blocks (:class:`_Block`).

    ``charge(seconds)`` is ``comm.advance``; :meth:`compute` is a charge
    inside an ``spmd.compute`` span while tracing.  The span holds only the
    charge: the kernel itself does not move the modeled clock, so the
    span's times are those of a span around kernel and charge.
    """

    def __init__(self, comm: Comm):
        self.comm, self.rank = comm, comm.rank
        self.tracer = get_tracer()
        self.traced = self.tracer.enabled
        self.charge = comm.advance

    def compute(self, kernel: str, seconds: float) -> None:
        if self.traced:
            with self.tracer.span("spmd.compute", rank=self.rank, kernel=kernel):
                self.charge(seconds)
        else:
            self.charge(seconds)

    async def allreduce(self, value, **tags):
        """``comm.allreduce`` inside an ``spmd.reduction`` span while tracing."""
        if not self.traced:
            return await self.comm.allreduce(value)
        with self.tracer.span("spmd.reduction", rank=self.rank, **tags):
            return await self.comm.allreduce(value)

    async def spmv(self, blk: _Block, v: np.ndarray) -> np.ndarray:
        """Blocking-exchange product: update the halo, then one product
        with the fused block."""
        await _halo_exchange(self.comm, blk.mat, v, blk.halo)
        plan, seconds = blk.fused
        if blk.halo.size:
            blk.operand[: blk.n_local] = v
            v = blk.operand
        y = plan.spmv(v)
        self.compute("spmv", seconds)
        return y

    async def spmv_overlapped(self, blk: _Block, v: np.ndarray) -> np.ndarray:
        """Overlapped product: post the halo exchange, apply ``A_ll`` while
        it is in flight, then add ``A_lh`` times the halo."""
        pending = _halo_exchange_start(self.comm, blk.mat, v)
        plan, seconds = blk.local
        y = plan.spmv(v)
        self.compute("spmv_local", seconds)
        halo = await _halo_exchange_finish(self.comm, blk.mat, pending, blk.halo)
        plan, seconds = blk.remote
        if plan is not None:
            y += plan.spmv(halo)
            self.compute("spmv_halo", seconds)
        return y


def spmd_halo_update(
    mat: DistMatrix,
    x: DistVector,
    tracker: CommTracker | None = None,
    *,
    engine: str = "events",
    clock: ClockModel | None = None,
    telemetry=None,
) -> list[np.ndarray]:
    """Run the halo update alone on the SPMD runtime; returns halo buffers.

    ``telemetry`` takes a :class:`repro.observe.stream.TelemetryConfig` —
    the instrumented form used to re-prove the paper's schedule invariance
    *with telemetry enabled*.  As for the solvers, an unwatched run takes
    the clocked executor.  ``engine`` accepts only ``"events"``.
    """
    _check_engine(engine)
    clock = clock if clock is not None else ClockModel()
    if not _watched(telemetry):
        ledger = _Ledger(mat.partition, clock, telemetry)
        exchange = _Exchange(ledger, mat)
        ledger.clocks += exchange.pack_s
        exchange.starts[1] += 1
        halo = exchange._finish(ledger.clocks + clock.alpha, x.values)
        ledger.finish(mat.partition, x.values, 0, tracker)  # books traffic, telemetry
        return np.split(halo, mat.schedule.halo_offsets[1:-1])

    async def _prog(comm: Comm):
        p = comm.rank
        halo = np.zeros(mat.schedule.ext_cols[p].size, dtype=np.float64)
        return await _halo_exchange(comm, mat, x.parts[p], halo)

    return run_spmd(_prog, mat.partition.nparts, tracker=tracker, clock=clock)


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
    :func:`repro.core.cg.pcg` as a rank program; an unwatched run takes
    the clocked executor.  ``clock`` is the run's
    :class:`~repro.mpisim.ClockModel`; ``engine`` accepts only
    ``"events"``.
    """
    _check_engine(engine)
    run = _engine_cg if _watched() else _clocked_cg
    return run(mat, b, rtol, max_iterations, precond_pair, tracker,
               clock if clock is not None else ClockModel())[:2]


def _engine_cg(mat, b, rtol, max_iterations, precond_pair, tracker, clock):
    """The rank program on the engine: solution, iterations, final clocks."""
    part = mat.partition

    async def _prog(comm: Comm):
        p = comm.rank
        n = mat.locals[p].n_local
        rank = _Rank(comm)
        seconds = comm.clock.kernel_seconds
        dot_s = seconds(*vector_work(n, dots=1))
        axpy_s = seconds(*vector_work(n, updates=2))
        update_s = seconds(*vector_work(n, updates=1))
        a = _Block(comm, mat, overlap=False)
        pre = ([_Block(comm, m, overlap=False) for m in precond_pair]
               if precond_pair is not None else None)

        async def gdot(u: np.ndarray, v: np.ndarray) -> float:
            partial = float(np.dot(u, v))
            rank.charge(dot_s)
            return await rank.allreduce(partial)

        async def apply_precond(v: np.ndarray) -> np.ndarray:
            if pre is None:
                return v.copy()
            return await rank.spmv(pre[1], await rank.spmv(pre[0], v))

        x = np.zeros(n, dtype=np.float64)
        r = b.parts[p].copy()
        norm0 = np.sqrt(await gdot(r, r))
        if norm0 == 0.0:
            return x, 0, comm.now()
        z = await apply_precond(r)
        d = z.copy()
        rz = await gdot(r, z)
        iterations = 0
        for _ in range(max_iterations):
            if np.sqrt(await gdot(r, r)) <= rtol * norm0:
                break
            with rank.tracer.span("spmd.iteration", rank=p, index=iterations):
                ad = await rank.spmv(a, d)
                dad = await gdot(d, ad)
                if dad <= 0 or not np.isfinite(dad):
                    break  # not SPD, or breakdown: allreduced, so all ranks stop
                alpha = rz / dad
                x += alpha * d
                r -= alpha * ad
                rank.compute("axpy", axpy_s)
                z = await apply_precond(r)
                rz_new = await gdot(r, z)
                beta = rz_new / rz
                rz = rz_new
                d = z + beta * d
                rank.charge(update_s)
            iterations += 1
        return x, iterations, comm.now()

    return _gathered(part, run_spmd(_prog, part.nparts, tracker=tracker, clock=clock))


def _gathered(part, results):
    """The rank programs' ``(x, iterations, clock)`` results, gathered."""
    iters = results[0][1]
    assert all(it == iters for _, it, _ in results)
    return DistVector(part, [x for x, _, _ in results]), iters, [t for *_, t in results]


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
      posted with :func:`_halo_exchange_start`, the local column block
      ``A_ll·x_local`` is computed while peer traffic is in flight, and
      only then does the rank wait — so
      summed ``spmd.halo.wait`` time in :mod:`repro.observe.timeline`
      drops versus the blocking exchange.

    ``clock`` is the run's :class:`~repro.mpisim.ClockModel`: with a link
    latency the overlap benefit is directly visible as reduced modeled wait
    time (the charged local compute runs inside the latency window).
    ``telemetry`` takes a :class:`repro.observe.stream.TelemetryConfig`:
    each rank's compute, halo and allreduce waits, reductions and messages
    go into bounded histograms, giving :mod:`repro.observe.conformance` its
    simulated per-phase seconds without full tracing (not under the tracer
    or a fault plan: :class:`TelemetryError`).  ``engine`` accepts only
    ``"events"``.
    Returns ``(solution, iterations)``; iterates match the BSP
    ``pipelined_pcg`` to roundoff (the overlapped split changes row
    summation order in the last ulps).
    """
    _check_engine(engine)
    run = (_engine_pipelined_pcg if _watched(telemetry)
           else partial(_clocked_pipelined_pcg, telemetry=telemetry))
    return run(mat, b, rtol, max_iterations, precond_pair, tracker, overlap,
               clock if clock is not None else ClockModel())[:2]


def _engine_pipelined_pcg(mat, b, rtol, max_iterations, precond_pair, tracker, overlap,
                          clock):
    """The rank program on the engine: solution, iterations, final clocks."""
    part = mat.partition

    async def _prog(comm: Comm):
        p = comm.rank
        n = mat.locals[p].n_local
        rank = _Rank(comm)
        seconds = comm.clock.kernel_seconds
        dots_s = [seconds(*vector_work(n, dots=k)) for k in range(4)]
        update_s = seconds(*vector_work(n, updates=4))
        product = rank.spmv_overlapped if overlap else rank.spmv
        a = _Block(comm, mat, overlap)
        pre = ([_Block(comm, m, overlap) for m in precond_pair]
               if precond_pair is not None else None)

        async def fused_dots(*pairs: tuple[np.ndarray, np.ndarray]) -> list[float]:
            partials = np.array(
                [float(np.dot(u, v)) for u, v in pairs], dtype=np.float64
            )
            rank.charge(dots_s[len(pairs)])
            return [float(v) for v in await rank.allreduce(partials, fused=len(pairs))]

        async def apply_precond(v: np.ndarray) -> np.ndarray:
            if pre is None:
                return v.copy()
            return await product(pre[1], await product(pre[0], v))

        x = np.zeros(n, dtype=np.float64)
        r = b.parts[p].copy()
        (norm0_sq,) = await fused_dots((r, r))
        norm0 = float(np.sqrt(max(norm0_sq, 0.0)))
        if norm0 == 0.0:
            return x, 0, comm.now()
        target = rtol * norm0
        u = await apply_precond(r)
        w = await product(a, u)
        gamma, delta = await fused_dots((r, u), (w, u))
        m_w = await apply_precond(w)
        n_vec = await product(a, m_w)
        z = n_vec.copy()
        q = m_w.copy()
        pd = u.copy()
        s = w.copy()
        alpha = gamma / delta if delta != 0 else 0.0
        res = norm0
        iterations = 0
        for _ in range(max_iterations):
            if res <= target or delta == 0 or not np.isfinite(alpha):
                break
            with rank.tracer.span("spmd.iteration", rank=p, index=iterations):
                x += alpha * pd
                r -= alpha * s
                u -= alpha * q
                w -= alpha * z
                rank.compute("axpy", update_s)
                rr, gamma_new, delta = await fused_dots((r, r), (r, u), (w, u))
                res = float(np.sqrt(max(rr, 0.0)))
                iterations += 1
                if res <= target:
                    break
                m_w = await apply_precond(w)
                n_vec = await product(a, m_w)
                beta = gamma_new / gamma if gamma != 0 else 0.0
                gamma = gamma_new
                denom = delta - beta * gamma / alpha if alpha != 0 else delta
                alpha = gamma / denom if denom != 0 else 0.0
                z = n_vec + beta * z
                q = m_w + beta * q
                pd = u + beta * pd
                s = w + beta * s
                rank.compute("axpy", update_s)
        return x, iterations, comm.now()

    return _gathered(part, run_spmd(_prog, part.nparts, tracker=tracker, clock=clock))


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
    ``telemetry``, also each rank's charges (not the pack ones), late
    receives and allreduces in its order, and its messages."""

    def __init__(self, part, clock, telemetry=None):
        self.clock, self.clocks = clock, np.zeros(part.nparts)
        self.sizes = part.sizes()
        self.row_offsets = np.zeros(part.nparts + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=self.row_offsets[1:])
        self.groups = _dot_groups(self.sizes, self.row_offsets)
        self.reduced: list[int] = []  # the bytes of each allreduce
        self.halos: dict[int, list] = {}  # id(schedule) -> [schedule, starts]
        self.telemetry, self.everyone = telemetry, np.arange(part.nparts)
        self.observed: list | None = [] if telemetry is not None else None

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
            reduce_rounds(self.clocks, partials, self.clock.alpha, self.clock.beta,
                          self.reduced[-1], log)
            self.waited(_COLLECTIVE_WAIT, log)
            self.observed.append((_REDUCTION, self.everyone, self.clocks - start,
                                  self.clocks.copy(), None))
        return partials[0].tolist()

    def computed(self, seconds: np.ndarray, ranks: np.ndarray | None = None) -> None:
        """Observe the charge of ``seconds`` just made (on ``ranks``)."""
        ranks = self.everyone if ranks is None else ranks
        self.observed.append((_COMPUTE, ranks, seconds[ranks], self.clocks[ranks], None))

    def waited(self, name: str, log: list) -> None:
        """Observe the late ones of a log of receives, each ``(ranks, their
        clocks, arrival, sources)`` (a rank once), in order."""
        for ranks, start, arrival, sources in log:
            late = arrival > start
            seconds = (arrival - start)[late]
            if seconds.size:  # an attribute: ``late.any()`` would be a Python call
                self.observed.append((name, ranks[late], seconds, arrival[late],
                                      sources[late]))

    def finish(self, part, x: np.ndarray, iterations: int, tracker):
        """Book the traffic as the engine does, and the telemetry; solution,
        iterations, clocks."""
        if tracker is not None:
            book_bulk(tracker, self.sizes.size, len(self.reduced), sum(self.reduced),
                      self.halos.values())
        if self.telemetry is not None:
            self.telemetry.aggregate(self.sizes.size, self.observed, self.messages(),
                                     tracker)
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


class _Exchange:
    """One matrix's halo exchanges in a clocked run: a receiving rank's
    clock becomes ``max(own, post + β·bytes)`` over its sources, one
    segment max over the messages, which come by receiver (under
    telemetry, one receive at a time in ``recv_from`` order)."""

    def __init__(self, ledger: _Ledger, mat: DistMatrix):
        sched = mat.schedule
        self.ledger = ledger
        self.src, receivers, nbytes = sched.messages
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
        post = ledger.clocks + ledger.clock.alpha
        if self.fused is not None:
            self._finish(post, v)
            plan, seconds = self.fused
            self.operand[: self.n] = v
            y = plan.spmv(self.operand, out)
            ranks = None
        else:
            plan, seconds = self.local
            y = plan.spmv(v, out)
            ledger.clocks += seconds
            if ledger.observed is not None:
                ledger.computed(seconds)
            plan, seconds = self.remote
            y += plan.spmv(self._finish(post, v))
            ranks = self.haloed
        ledger.clocks += seconds
        if ledger.observed is not None:
            ledger.computed(seconds, ranks)
        return y


def _clocked_cg(mat, b, rtol, max_iterations, precond_pair, tracker, clock):
    """``spmd_cg``'s rank program over all ranks, on whole vectors."""
    part = mat.partition
    ledger = _Ledger(part, clock)
    dot_s, axpy_s, update_s = (clock.kernel_seconds(*vector_work(ledger.sizes, **w))
                               for w in ({"dots": 1}, {"updates": 2}, {"updates": 1}))
    a = _Product(ledger, mat, overlap=False)
    pre = precond_pair and [_Product(ledger, m, overlap=False) for m in precond_pair]
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
        a.product(d, ad)
        dad = gdot(d, ad)
        if dad <= 0 or not np.isfinite(dad):
            break  # not SPD, or breakdown
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        ledger.clocks += axpy_s
        apply_precond(r, z)
        rz_new = gdot(r, z)
        beta = rz_new / rz
        rz = rz_new
        np.add(z, beta * d, out=d)
        ledger.clocks += update_s
        iterations += 1
    return ledger.finish(part, x, iterations, tracker)


def _clocked_pipelined_pcg(mat, b, rtol, max_iterations, precond_pair, tracker, overlap, clock,
                           telemetry=None):
    """``spmd_pipelined_pcg``'s rank program over all ranks, as
    :func:`_clocked_cg`."""
    part = mat.partition
    ledger = _Ledger(part, clock, telemetry)
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
        x += alpha * pd
        r -= alpha * s
        u -= alpha * q
        w -= alpha * z
        ledger.clocks += update_s
        if ledger.observed is not None:
            ledger.computed(update_s)
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
            ledger.computed(update_s)
    return ledger.finish(part, x, iterations, tracker)
