"""Weak-scaling benchmark on the SPMD engine: ``BENCH_scaling.json``.

Where ``BENCH_solver.json`` (see :mod:`benchmarks.solver_bench`) tracks the
paper's iteration/nnz tradeoff on the Table 1 catalog, this suite proves the
*runtime* claims at scale: :func:`repro.dist.spmd.spmd_pipelined_pcg`
completes an FSAI-preconditioned solve at 64, 256, 1024 and 4096 simulated
ranks under weak scaling (a fixed ~64 rows per rank on growing Poisson
grids; every rank a coroutine on one thread), with per-edge message
coalescing keeping the
:class:`repro.mpisim.CommTracker` byte accounting exact while cutting
message counts.

Per scale the suite records:

* ``iterations`` — pipelined-PCG iterations to the configured tolerance
  (deterministic: the fused allreduce is bitwise identical on all ranks);
* ``messages`` / ``bytes`` — total point-to-point traffic under coalescing
  (deterministic, gated exactly) plus ``reductions`` (collective calls);
* ``modeled_ms`` — analytic solve time from :class:`repro.perfmodel.CostModel`
  with ``reduction_phases=1`` (pipelined PCG's single fused reduction);
* ``max_bsp_wait_ms`` — worst per-rank bulk-synchronous wait from
  :func:`repro.observe.bsp_wait_times` over modeled per-rank busy time;
* ``wall_s`` — wall clock of the simulation itself (recorded, never gated);
* ``invariant`` — the paper's guarantee that FSAIE-Comm exchanges exactly
  the FSAI halos (:func:`repro.core.check_comm_invariance`);
* ``halo_invariant`` — the same guarantee re-proved on the wire: halo
  updates for both preconditioners run on the coalescing transport and
  their tracker snapshots must match edge-for-edge
  (:func:`repro.observe.compare_snapshots`).

``scripts/check_bench.py scaling`` gates the deterministic metrics against
``benchmarks/baselines/scaling_baseline.json``.

Run::

    PYTHONPATH=src python benchmarks/suites.py scaling           # BENCH_scaling.json
    PYTHONPATH=src python benchmarks/suites.py scaling --quick   # 64 ranks only
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import build_fsai, build_fsaie_comm, check_comm_invariance
from repro.dist import (
    DistMatrix,
    DistVector,
    RowPartition,
    spmd_halo_update,
    spmd_pipelined_pcg,
)
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import CommTracker
from repro.observe import bsp_wait_times, compare_snapshots
from repro.perfmodel import MACHINES, CostModel

#: Weak-scaling ladder: (ranks, Poisson grid side).  ``n*n / ranks`` stays at
#: 64 rows per rank, so per-rank work is constant and growth in wait/traffic
#: is purely a function of scale.
SCALES = ((64, 64), (256, 128), (1024, 256), (4096, 512))
QUICK_SCALES = ((64, 64),)

#: Fixed iteration budget.  Under weak scaling the Poisson condition number
#: grows with the grid, so convergence-to-tolerance would conflate
#: *algorithmic* scaling with the *engine* scaling this suite measures; a
#: fixed budget keeps per-rank work constant across the ladder (the final
#: relative residual is recorded per scale for context).
RTOL = 1e-6
MAX_ITERATIONS = 40
RHS_SEED = 9
MODEL_MACHINE = "skylake"


def _halo_invariance(pre, pre_comm, b: DistVector) -> bool:
    """Prove comm-invariance on the wire: run both preconditioners' halo
    updates (G and Gᵀ) on the coalescing transport and require
    edge-identical tracker snapshots."""
    trackers = []
    for pre_k in (pre, pre_comm):
        tr = CommTracker()
        for g in (pre_k.g, pre_k.gt):
            spmd_halo_update(g, b, tr)
        trackers.append(tr)
    verdict = compare_snapshots(
        trackers[0].snapshot(),
        trackers[1].snapshot(),
        base_label=pre.name,
        other_label=pre_comm.name,
        check_collectives=False,
    )
    return bool(verdict.invariant)


def run_scale(ranks: int, n: int, *, machine_name: str = MODEL_MACHINE) -> dict:
    """Solve one weak-scaling configuration; returns its result entry."""
    machine = MACHINES[machine_name]
    mat = poisson2d(n)
    part = RowPartition.from_matrix(mat, ranks, seed=ranks)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=RHS_SEED), part)

    pre = build_fsai(mat, part)
    pre_comm = build_fsaie_comm(mat, part)
    invariant = check_comm_invariance(pre, pre_comm)
    halo_invariant = _halo_invariance(pre, pre_comm, b)

    tracker = CommTracker()
    t0 = time.perf_counter()
    x, iterations = spmd_pipelined_pcg(
        da,
        b,
        rtol=RTOL,
        max_iterations=MAX_ITERATIONS,
        precond_pair=(pre.g, pre.gt),
        tracker=tracker,
    )
    wall = time.perf_counter() - t0

    residual = b.to_global() - mat.spmv(x.to_global())
    rel_residual = float(
        np.linalg.norm(residual) / np.linalg.norm(b.to_global())
    )

    model = CostModel(machine, threads_per_process=1)
    per_iter = model.iteration_cost(da, pre, reduction_phases=1).total
    busy = [
        (a + g + gt) / machine.core_flops
        for a, g, gt in zip(
            da.flops_per_rank(), pre.g.flops_per_rank(), pre.gt.flops_per_rank()
        )
    ]
    return {
        "ranks": ranks,
        "grid": n,
        "rows": int(mat.nrows),
        "rows_per_rank": mat.nrows // ranks,
        "iterations": int(iterations),
        "converged": rel_residual <= RTOL,
        "rel_residual": rel_residual,
        "messages": int(tracker.total_messages),
        "bytes": int(tracker.total_bytes),
        "modeled_ms": float(per_iter * iterations * 1e3),
        "max_bsp_wait_ms": float(max(bsp_wait_times(busy)) * iterations * 1e3),
        "wall_s": float(wall),
        "invariant": bool(invariant),
        "halo_invariant": bool(halo_invariant),
    }


def run_scaling_suite(*, quick: bool = False) -> dict:
    """Run the weak-scaling ladder; returns the suite document.

    The ``summary`` mapping is the flat comparable surface (consumed by
    :meth:`repro.observe.RunReport.from_bench`): per-scale iteration
    counts, exact message/byte totals, modeled milliseconds, max BSP wait
    and the two invariance flags.  ``wall_s`` is recorded for context but
    never gated — it is the only machine-dependent number here.
    """
    scales = QUICK_SCALES if quick else SCALES
    scaling: dict = {}
    summary: dict = {}
    for ranks, n in scales:
        entry = run_scale(ranks, n)
        key = f"r{ranks}"
        scaling[key] = entry
        for metric in (
            "iterations",
            "messages",
            "bytes",
            "modeled_ms",
            "max_bsp_wait_ms",
            "wall_s",
        ):
            summary[f"{key}.{metric}"] = entry[metric]
        summary[f"{key}.invariant"] = int(entry["invariant"])
        summary[f"{key}.halo_invariant"] = int(entry["halo_invariant"])
    return {
        "suite": "scaling",
        "config": {
            "scales": [list(s) for s in scales],
            "rows_per_rank": 64,
            "rtol": RTOL,
            "max_iterations": MAX_ITERATIONS,
            "rhs_seed": RHS_SEED,
            "machine": MODEL_MACHINE,
        },
        "scaling": scaling,
        "summary": summary,
    }


def format_summary(result: dict) -> str:
    lines = [
        "weak scaling on the SPMD engine (modeled on %s)"
        % result["config"]["machine"],
        "",
    ]
    header = (
        f"{'ranks':>6} {'rows':>7} {'iters':>6} {'msgs':>8} {'KiB':>8} "
        f"{'model ms':>9} {'wait ms':>8} {'wall s':>7} {'inv':>4}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for key in sorted(result["scaling"], key=lambda k: int(k[1:])):
        e = result["scaling"][key]
        inv = "ok" if e["invariant"] and e["halo_invariant"] else "FAIL"
        lines.append(
            f"{e['ranks']:>6} {e['rows']:>7} {e['iterations']:>6} "
            f"{e['messages']:>8} {e['bytes'] / 1024:>8.1f} "
            f"{e['modeled_ms']:>9.3f} {e['max_bsp_wait_ms']:>8.3f} "
            f"{e['wall_s']:>7.2f} {inv:>4}"
        )
    return "\n".join(lines)

