"""SPMD execution of the distributed kernels on the mpisim runtime.

The BSP layer (:class:`~repro.dist.matrix.DistMatrix`) applies operations
rank-by-rank in the driver — deterministic and fast.  This module runs the
*same* data structures as rank programs on :func:`repro.mpisim.run_spmd`:
a halo update is the engine's neighbourhood exchange and a reduction its
allreduce, with the clocks and per-edge traffic of point-to-point messages
(real ones under a fault injector, tracer or telemetry).  Tests assert
both engines agree, which validates the BSP shortcut.

The rank programs here are coroutines (``async def``; see
:mod:`repro.mpisim`): they ``await`` receives, request completion and
collectives, and charge each rank-local kernel's *modeled* cost to the
rank's clock (:func:`_charge`) — nothing reads the host's clock.  The
functions callers use (:func:`spmd_cg`, …) stay plain: they build the rank
program and hand it to ``run_spmd``.

The work of a kernel (:func:`spmv_work`, :func:`vector_work`,
:func:`pack_work`) and of an iteration (:data:`CG_ITERATION`,
:data:`PIPELINED_ITERATION`) is defined once, here: the rank programs
charge it and :class:`repro.perfmodel.CostModel` predicts from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.matrix import DistMatrix
from repro.dist.vector import DistVector
from repro.errors import CommError
from repro.instrument import get_tracer
from repro.mpisim import ClockModel, Comm, CommTracker, run_spmd

__all__ = [
    "spmd_halo_update",
    "spmd_cg",
    "spmd_pipelined_pcg",
]

_TAG_HALO = 7_000

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


def _charge(comm: Comm, work: tuple) -> None:
    """Charge one rank-local kernel's ``(flops, bytes)`` to the rank's
    modeled clock (the run's :meth:`~repro.mpisim.ClockModel.kernel_seconds`)
    and stream the same seconds into the rank's telemetry ``compute``
    histogram when one is installed."""
    seconds = comm.clock.kernel_seconds(*work)
    comm.advance(seconds)
    if comm.telemetry is not None:
        comm.telemetry.observe("compute", seconds, end=comm.now())


def _halo_exchange_start(comm: Comm, mat: DistMatrix, x_local: np.ndarray):
    """Post one rank's halo exchange; complete with ``_halo_exchange_finish``.

    The caller can run local compute between start and finish, overlapping
    it with the other ranks' exchanges.  Nothing here can block, so this
    is a plain function.  The pack charges the gather's streamed bytes to
    the clock.  On the run's plan it is one ``halo_start``; point to point,
    one ``irecv`` per incoming edge, a ``spmd.halo.pack`` span tagged with
    the payload bytes, and one send per outgoing edge.
    """
    p = comm.rank
    sched = mat.schedule
    plan = comm.halo_plan(sched)
    if plan is not None:
        comm.advance(comm.clock.kernel_seconds(*pack_work(plan.gather[p].size)))
        return comm.halo_start(plan, x_local)
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

    Point to point, each incoming edge's completion is a ``spmd.halo.wait``
    span (tagged with the awaited source and payload bytes) — the segments
    the timeline layer classifies as wait time, and overlap shrinks.
    """
    if not isinstance(pending, list):  # the plan, not receive requests
        return await comm.halo_finish(pending, halo)
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


class _Operands:
    """One rank's ``[x_local | halo]`` SpMV operands, one buffer per matrix
    of the solve, allocated on first use and refilled per product."""

    def __init__(self, rank: int):
        self.rank = rank
        self._buffers: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def of(self, mat: DistMatrix) -> tuple[np.ndarray, np.ndarray]:
        """``(operand, halo)``: the full buffer and its halo tail (a view)."""
        pair = self._buffers.get(id(mat))
        if pair is None:
            lm = mat.locals[self.rank]
            buf = np.zeros(lm.n_local + lm.n_halo, dtype=np.float64)
            pair = self._buffers[id(mat)] = (buf, buf[lm.n_local:])
        return pair


async def _fused_spmv(comm: Comm, mat: DistMatrix, operands: _Operands,
                      v: np.ndarray) -> np.ndarray:
    """Blocking-exchange SpMV of one rank: update the halo, then one
    product with the rank's full local block."""
    p = comm.rank
    lm = mat.locals[p]
    operand, halo = operands.of(mat)
    await _halo_exchange(comm, mat, v, halo)
    with get_tracer().span("spmd.compute", rank=p, kernel="spmv"):
        if lm.n_halo:
            operand[: lm.n_local] = v
            v = operand
        y = lm.csr.spmv(v)
        _charge(comm, spmv_work(lm.csr.nnz, lm.csr.nrows))
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

    ``telemetry`` forwards a :class:`repro.observe.stream.TelemetryConfig`
    to :func:`repro.mpisim.run_spmd` — the instrumented form used to
    re-prove the paper's schedule invariance *with telemetry enabled*.
    ``engine`` accepts only ``"events"`` (the one engine there is).
    """
    _check_engine(engine)

    async def _prog(comm: Comm):
        p = comm.rank
        halo = np.zeros(mat.schedule.ext_cols[p].size, dtype=np.float64)
        return await _halo_exchange(comm, mat, x.parts[p], halo)

    return run_spmd(
        _prog, mat.partition.nparts, tracker=tracker, clock=clock,
        telemetry=telemetry,
    )


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
    :func:`repro.core.cg.pcg` and exists to validate it end-to-end on real
    message passing.  ``clock`` is the run's
    :class:`~repro.mpisim.ClockModel`; ``engine`` accepts only
    ``"events"``.
    """
    _check_engine(engine)
    part = mat.partition

    async def _prog(comm: Comm):
        p = comm.rank
        n = mat.locals[p].n_local
        tracer = get_tracer()
        operands = _Operands(p)

        async def gdot(u: np.ndarray, v: np.ndarray) -> float:
            partial = float(np.dot(u, v))
            _charge(comm, vector_work(n, dots=1))
            with tracer.span("spmd.reduction", rank=p):
                return await comm.allreduce(partial)

        async def apply_precond(v: np.ndarray) -> np.ndarray:
            if precond_pair is None:
                return v.copy()
            g, gt = precond_pair
            return await _fused_spmv(
                comm, gt, operands, await _fused_spmv(comm, g, operands, v)
            )

        x = np.zeros(n, dtype=np.float64)
        r = b.parts[p].copy()
        norm0 = np.sqrt(await gdot(r, r))
        if norm0 == 0.0:
            return x, 0
        z = await apply_precond(r)
        d = z.copy()
        rz = await gdot(r, z)
        iterations = 0
        for _ in range(max_iterations):
            if np.sqrt(await gdot(r, r)) <= rtol * norm0:
                break
            with tracer.span("spmd.iteration", rank=p, index=iterations):
                ad = await _fused_spmv(comm, mat, operands, d)
                dad = await gdot(d, ad)
                if dad <= 0 or not np.isfinite(dad):
                    break  # not SPD, or breakdown: allreduced, so all ranks stop
                alpha = rz / dad
                with tracer.span("spmd.compute", rank=p, kernel="axpy"):
                    x += alpha * d
                    r -= alpha * ad
                    _charge(comm, vector_work(n, updates=2))
                z = await apply_precond(r)
                rz_new = await gdot(r, z)
                beta = rz_new / rz
                rz = rz_new
                d = z + beta * d
                _charge(comm, vector_work(n, updates=1))
            iterations += 1
        return x, iterations

    results = run_spmd(_prog, part.nparts, tracker=tracker, clock=clock)
    iters = results[0][1]
    assert all(it == iters for _, it in results)
    return DistVector(part, [x for x, _ in results]), iters


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
    ``telemetry`` forwards a :class:`repro.observe.stream.TelemetryConfig`:
    every compute kernel's modeled seconds additionally go into the rank's
    bounded ``compute`` histogram (waits and reductions are observed by the
    transport itself), giving :mod:`repro.observe.conformance` its
    simulated per-phase seconds without full tracing.  ``engine`` accepts
    only ``"events"``.
    Returns ``(solution, iterations)``; iterates match the BSP
    ``pipelined_pcg`` to roundoff (the overlapped split changes row
    summation order in the last ulps).
    """
    _check_engine(engine)
    part = mat.partition
    blocks = mat.split_blocks() if overlap else None
    pre_blocks = (
        (precond_pair[0].split_blocks(), precond_pair[1].split_blocks())
        if overlap and precond_pair is not None
        else (None, None)
    )

    async def _prog(comm: Comm):
        p = comm.rank
        n = mat.locals[p].n_local
        tracer = get_tracer()
        operands = _Operands(p)

        async def local_spmv(m: DistMatrix, m_blocks, v: np.ndarray) -> np.ndarray:
            if m_blocks is None:
                return await _fused_spmv(comm, m, operands, v)
            pending = _halo_exchange_start(comm, m, v)
            a_ll, a_lh = m_blocks[p]
            with tracer.span("spmd.compute", rank=p, kernel="spmv_local"):
                y = a_ll.spmv(v)
                _charge(comm, spmv_work(a_ll.nnz, a_ll.nrows))
            halo = await _halo_exchange_finish(comm, m, pending, operands.of(m)[1])
            if a_lh is not None:
                with tracer.span("spmd.compute", rank=p, kernel="spmv_halo"):
                    y += a_lh.spmv(halo)
                    _charge(comm, spmv_work(a_lh.nnz, a_lh.nrows))
            return y

        async def fused_dots(*pairs: tuple[np.ndarray, np.ndarray]) -> list[float]:
            partials = np.array(
                [float(np.dot(a, c)) for a, c in pairs], dtype=np.float64
            )
            _charge(comm, vector_work(n, dots=len(pairs)))
            with tracer.span("spmd.reduction", rank=p, fused=len(pairs)):
                return [float(v) for v in await comm.allreduce(partials)]

        async def apply_precond(v: np.ndarray) -> np.ndarray:
            if precond_pair is None:
                return v.copy()
            g, gt = precond_pair
            gb, gtb = pre_blocks
            return await local_spmv(gt, gtb, await local_spmv(g, gb, v))

        a_blocks = blocks
        x = np.zeros(n, dtype=np.float64)
        r = b.parts[p].copy()
        (norm0_sq,) = await fused_dots((r, r))
        norm0 = float(np.sqrt(max(norm0_sq, 0.0)))
        if norm0 == 0.0:
            return x, 0
        target = rtol * norm0
        u = await apply_precond(r)
        w = await local_spmv(mat, a_blocks, u)
        gamma, delta = await fused_dots((r, u), (w, u))
        m_w = await apply_precond(w)
        n_vec = await local_spmv(mat, a_blocks, m_w)
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
            with tracer.span("spmd.iteration", rank=p, index=iterations):
                with tracer.span("spmd.compute", rank=p, kernel="axpy"):
                    x += alpha * pd
                    r -= alpha * s
                    u -= alpha * q
                    w -= alpha * z
                    _charge(comm, vector_work(n, updates=4))
                rr, gamma_new, delta = await fused_dots((r, r), (r, u), (w, u))
                res = float(np.sqrt(max(rr, 0.0)))
                iterations += 1
                if res <= target:
                    break
                m_w = await apply_precond(w)
                n_vec = await local_spmv(mat, a_blocks, m_w)
                beta = gamma_new / gamma if gamma != 0 else 0.0
                gamma = gamma_new
                denom = delta - beta * gamma / alpha if alpha != 0 else delta
                alpha = gamma / denom if denom != 0 else 0.0
                with tracer.span("spmd.compute", rank=p, kernel="axpy"):
                    z = n_vec + beta * z
                    q = m_w + beta * q
                    pd = u + beta * pd
                    s = w + beta * s
                    _charge(comm, vector_work(n, updates=4))
        return x, iterations

    results = run_spmd(
        _prog, part.nparts, tracker=tracker, clock=clock, telemetry=telemetry,
    )
    iters = results[0][1]
    assert all(it == iters for _, it in results)
    return DistVector(part, [x for x, _ in results]), iters
