"""Pipelined preconditioned CG: the communication-hiding variant of PCG."""

from __future__ import annotations

import numpy as np

from repro.core.cg import (
    CGResult,
    PrecondLike,
    _FlightProbe,
    _make_apply,
    resolve_precond,
)
from repro.dist.matrix import DistMatrix
from repro.dist.vector import DistVector
from repro.instrument import get_metrics, get_tracer
from repro.kernels.workspace import SolverWorkspace
from repro.mpisim.tracker import CommTracker

__all__ = ["pipelined_pcg"]


def pipelined_pcg(
    mat: DistMatrix,
    b: DistVector,
    *,
    precond: PrecondLike = None,
    rtol: float = 1e-8,
    max_iterations: int = 50_000,
    tracker: CommTracker | None = None,
    workspace: SolverWorkspace | None = None,
) -> CGResult:
    """Pipelined preconditioned CG (Ghysels & Vanroose 2014).

    Mathematically equivalent to :func:`repro.core.cg.pcg` in exact
    arithmetic, but restructured so the two dot products of an iteration are
    computed back-to-back (one allreduce phase instead of three) and the
    SpMV is issued before the reductions complete — the standard
    communication-hiding reformulation for the latency-dominated regime the
    paper's large-scale runs live in.  The price is one extra SpMV-sized
    recurrence per iteration and slightly weaker numerical stability.

    ``precond`` accepts a preconditioner object (anything with ``.apply``)
    or a bare callable, like :func:`repro.core.cg.pcg`; ``workspace`` follows
    the :func:`repro.core.cg.pcg` contract.  The message-passing run that
    really overlaps halo traffic with the local-block product is
    :func:`repro.dist.spmd.spmd_pipelined_pcg`.
    """
    precond_fn = resolve_precond(precond)
    ws = workspace if workspace is not None else SolverWorkspace(mat)
    apply_m = _make_apply(precond_fn, ws, tracker)

    def fused_dots(*pairs: tuple[DistVector, DistVector]) -> list[float]:
        """Several global dots in ONE allreduce — the pipelining payoff."""
        partials = [x_.dot(y_) for x_, y_ in pairs]
        if tracker is not None:
            # 8 bytes per scalar per rank, as DistVector.dot books them
            tracker.record_collective(
                "allreduce", 8 * mat.partition.nparts * len(pairs)
            )
        return partials

    def spmv(vec: DistVector, out_name: str) -> DistVector:
        return ws.spmv(mat, vec, out=ws.vector(out_name), tracker=tracker)

    x = DistVector.zeros(mat.partition)
    r = ws.vector("ppcg.r").copy_from(b)
    (norm0_sq,) = fused_dots((b, b))
    norm0 = float(np.sqrt(max(norm0_sq, 0.0)))
    history = [norm0]
    if norm0 == 0.0:
        return CGResult(x, 0, True, history)
    target = rtol * norm0

    u = apply_m(r, "ppcg.u")  # u = M r
    w = spmv(u, "ppcg.w")  # w = A u
    gamma, delta = fused_dots((r, u), (w, u))
    m_w = apply_m(w, "ppcg.m_w")
    n_vec = spmv(m_w, "ppcg.n")

    z = ws.vector("ppcg.z").copy_from(n_vec)
    q = ws.vector("ppcg.q").copy_from(m_w)
    p = ws.vector("ppcg.p").copy_from(u)
    s = ws.vector("ppcg.s").copy_from(w)
    alpha = gamma / delta if delta != 0 else 0.0
    converged = False
    iterations = 0
    tracer = get_tracer()
    iter_counter = get_metrics().counter("pipelined_pcg.iterations")
    probe = (
        _FlightProbe(tracer, "pipelined_pcg", mat, b, norm0, tracker)
        if tracer.enabled
        else None
    )
    for _ in range(max_iterations):
        if history[-1] <= target or delta == 0 or not np.isfinite(alpha):
            break
        with tracer.span("pipelined_pcg.iteration", index=iterations):
            with tracer.span("pcg.axpy"):
                x.axpy(alpha, p)
                r.axpy(-alpha, s)
                u.axpy(-alpha, q)
                w.axpy(-alpha, z)
            # one fused reduction per iteration: ||r||^2, (r,u) and (w,u)
            with tracer.span("pcg.dot", fused=3):
                rr, gamma_new, delta = fused_dots((r, r), (r, u), (w, u))
            history.append(float(np.sqrt(max(rr, 0.0))))
            if probe is not None:
                probe.iteration(iterations, history[-1], x, alpha=alpha)
            iterations += 1
            iter_counter.inc()
            if history[-1] <= target:
                converged = True
                break
            with tracer.span("pcg.precond"):
                m_w = apply_m(w, "ppcg.m_w")
            with tracer.span("pcg.spmv"):
                n_vec = spmv(m_w, "ppcg.n")
            beta = gamma_new / gamma if gamma != 0 else 0.0
            gamma = gamma_new
            denom = delta - beta * gamma / alpha if alpha != 0 else delta
            alpha = gamma / denom if denom != 0 else 0.0
            # pipelined recurrences replace the d-vector update of standard CG
            # (xpay(v, beta) is the in-place v + beta·self)
            with tracer.span("pcg.axpy"):
                z.xpay(n_vec, beta)
                q.xpay(m_w, beta)
                p.xpay(u, beta)
                s.xpay(w, beta)

    if history[-1] <= target:
        converged = True
    return CGResult(x, iterations, converged, history)
