"""The SPMD solvers and the halo update as rank programs on the engine.

``spmd_cg``, ``spmd_pipelined_pcg`` and ``spmd_halo_update`` run only on
the clocked executor (:mod:`repro.dist.spmd`): its ledger computes every
rank's clock, traffic, telemetry, spans and fault verdicts for all ranks
at once.  These are the rank programs it replaced — one coroutine per rank
on :func:`spmd_engine.run_spmd`, every halo value and partial sum a
message — kept here as its oracle: the solution, iterations, final clocks
and tracker snapshot of a run, under the tracer its spans, and under a
fault plan its verdicts, must be what the ledger produces.

The halo exchange is split in two so the overlapped product can compute
its owned-column block while the exchange is in flight:
:func:`halo_exchange_start` posts one ``irecv`` per incoming edge, packs
inside a ``spmd.halo.pack`` span and sends one message per outgoing edge;
``await`` :func:`halo_exchange_finish` completes each receive inside a
``spmd.halo.wait`` span.
"""

from __future__ import annotations

import numpy as np

from spmd_engine import Comm, run_spmd

from repro.dist.matrix import DistMatrix
from repro.dist.spmd import _TAG_HALO, VALUE_BYTES, pack_work, spmv_work, vector_work
from repro.dist.vector import DistVector
from repro.instrument import get_tracer
from repro.kernels.plan import SpMVPlan


def halo_exchange_start(comm: Comm, mat: DistMatrix, x_local: np.ndarray):
    """Post one rank's halo exchange; complete it with
    :func:`halo_exchange_finish`.  Nothing here can block."""
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


async def halo_exchange_finish(comm: Comm, mat: DistMatrix, pending,
                               halo: np.ndarray) -> np.ndarray:
    """Complete a posted halo exchange into the rank's ``halo`` buffer,
    each incoming edge inside a ``spmd.halo.wait`` span while tracing."""
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


class Block:
    """One rank's block of one matrix in a run: its compiled plan and the
    modeled seconds of its product (``fused``), or with ``overlap`` its
    ``A_ll`` / ``A_lh`` plans and theirs, and its ``[x_local | halo]``
    operand buffer and halo view."""

    def __init__(self, comm: Comm, mat: DistMatrix, overlap: bool = False):
        seconds = comm.clock.kernel_seconds

        def priced(block):
            return SpMVPlan(block), seconds(*spmv_work(block.nnz, block.nrows))

        lm = mat.locals[comm.rank]
        self.mat, self.n_local = mat, lm.n_local
        self.operand = np.zeros(lm.n_local + lm.n_halo, dtype=np.float64)
        self.halo = self.operand[lm.n_local:]
        if not overlap:
            self.fused = priced(lm.csr)
            return
        self.fused = None
        a_ll, a_lh = mat.split_blocks()[comm.rank]
        self.local = priced(a_ll)
        self.remote = priced(a_lh) if a_lh is not None else (None, 0.0)


class Rank:
    """One rank's side of a solve: the tracer, resolved once, the clock
    charge (``comm.advance``), and the products over the rank's blocks
    (:class:`Block`).  :meth:`compute` is a charge in an ``spmd.compute``
    span: the kernel does not move the modeled clock, only its charge."""

    def __init__(self, comm: Comm):
        self.comm, self.rank = comm, comm.rank
        self.tracer = get_tracer()
        self.charge = comm.advance

    def compute(self, kernel: str, seconds: float) -> None:
        with self.tracer.span("spmd.compute", rank=self.rank, kernel=kernel):
            self.charge(seconds)

    async def allreduce(self, value, **tags):
        """``comm.allreduce`` inside an ``spmd.reduction`` span."""
        with self.tracer.span("spmd.reduction", rank=self.rank, **tags):
            return await self.comm.allreduce(value)

    async def spmv(self, blk: Block, v: np.ndarray) -> np.ndarray:
        """Blocking-exchange product: update the halo, then one product
        with the fused block."""
        await halo_exchange_finish(self.comm, blk.mat,
                                   halo_exchange_start(self.comm, blk.mat, v), blk.halo)
        plan, seconds = blk.fused
        if blk.halo.size:
            blk.operand[: blk.n_local] = v
            v = blk.operand
        y = plan.spmv(v)
        self.compute("spmv", seconds)
        return y

    async def spmv_overlapped(self, blk: Block, v: np.ndarray) -> np.ndarray:
        """Post the halo exchange, apply ``A_ll`` while it is in flight,
        then add ``A_lh`` times the halo."""
        pending = halo_exchange_start(self.comm, blk.mat, v)
        plan, seconds = blk.local
        y = plan.spmv(v)
        self.compute("spmv_local", seconds)
        halo = await halo_exchange_finish(self.comm, blk.mat, pending, blk.halo)
        plan, seconds = blk.remote
        if plan is not None:
            y += plan.spmv(halo)
            self.compute("spmv_halo", seconds)
        return y


def gathered(part, results):
    """The rank programs' ``(x, iterations, clock)`` results, gathered."""
    iters = results[0][1]
    assert all(it == iters for _, it, _ in results)
    return DistVector(part, [x for x, _, _ in results]), iters, [t for *_, t in results]


def engine_halo_update(mat, x, tracker=None, clock=None) -> list[np.ndarray]:
    """``spmd_halo_update`` on the engine: every rank's halo buffer."""

    async def prog(comm: Comm):
        p = comm.rank
        halo = np.zeros(mat.schedule.ext_cols[p].size, dtype=np.float64)
        return await halo_exchange_finish(
            comm, mat, halo_exchange_start(comm, mat, x.parts[p]), halo)

    return run_spmd(prog, mat.partition.nparts, tracker=tracker, clock=clock)


def engine_pipelined_pcg(mat, b, rtol, max_iterations, precond_pair, tracker, overlap,
                         clock):
    """``spmd_pipelined_pcg`` on the engine: solution, iterations, final
    clocks."""
    part = mat.partition

    async def prog(comm: Comm):
        p = comm.rank
        n = mat.locals[p].n_local
        rank = Rank(comm)
        seconds = comm.clock.kernel_seconds
        dots_s = [seconds(*vector_work(n, dots=k)) for k in range(4)]
        update_s = seconds(*vector_work(n, updates=4))
        product = rank.spmv_overlapped if overlap else rank.spmv
        a = Block(comm, mat, overlap)
        pre = ([Block(comm, m, overlap) for m in precond_pair]
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

    return gathered(part, run_spmd(prog, part.nparts, tracker=tracker, clock=clock))


def engine_cg(mat, b, rtol, max_iterations, precond_pair, tracker, clock):
    """``spmd_cg`` on the engine: solution, iterations, final clocks."""
    part = mat.partition

    async def prog(comm: Comm):
        p = comm.rank
        n = mat.locals[p].n_local
        rank = Rank(comm)
        seconds = comm.clock.kernel_seconds
        dot_s = seconds(*vector_work(n, dots=1))
        axpy_s = seconds(*vector_work(n, updates=2))
        update_s = seconds(*vector_work(n, updates=1))
        a = Block(comm, mat)
        pre = ([Block(comm, m) for m in precond_pair]
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

    return gathered(part, run_spmd(prog, part.nparts, tracker=tracker, clock=clock))
