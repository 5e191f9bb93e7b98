"""Microbenchmarks for the kernel runtime — the ``BENCH_kernels.json`` suite.

Measures (never asserts) the :mod:`repro.kernels` layer:

* planned SpMV and transpose SpMV against the unplanned reference kernel
  (:meth:`CSRMatrix.spmv`) on 2-D Poisson matrices of increasing size,
* a full PCG solve through a warm
  :class:`~repro.kernels.workspace.SolverWorkspace`: seconds, iterations and
  the hot-loop allocation count,
* the batched FSAI setup (:func:`~repro.core.fsai.compute_g_values`) and the
  incremental re-filter: one :class:`~repro.core.precond.ExtensionWorkspace`
  finalized at the paper's four Filter values, with the rows each
  ``finalize`` kept, copied from the base factor and solved again,
* one preconditioner application ``z = Gᵀ(G·r)`` per method (FSAI and
  FSAIE-Comm): stored entries, µs per apply and ns per stored entry — the
  paper's claim that extension entries are nearly free, in wall clock.

Entry points: :func:`run_suite` returns the result dict, :func:`write_suite`
writes it as JSON, :func:`format_summary` renders the human-readable table
printed by ``repro bench`` and ``benchmarks/microbench.py``.

Timings are best-of-``reps`` wall clock; sizes stay small enough that the
full suite runs in seconds (``quick=True`` trims further for smoke tests).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.cg import pcg
from repro.core.extension import ExtensionMode
from repro.core.filtering import FilterSpec
from repro.core.fsai import compute_g_values, fsai_pattern
from repro.core.precond import ExtensionWorkspace, build_fsai, build_fsaie_comm
from repro.dist.matrix import DistMatrix
from repro.dist.partition_map import RowPartition
from repro.dist.vector import DistVector
from repro.instrument import NULL_TRACER, tracing
from repro.kernels.plan import SpMVPlan
from repro.kernels.workspace import SolverWorkspace
from repro.matgen import poisson2d

__all__ = ["run_suite", "write_suite", "format_summary", "DEFAULT_SIZES", "DEFAULT_REPS"]

#: 2-D Poisson grid edge lengths benchmarked by default (n = size²).
DEFAULT_SIZES = (32, 64, 96)
DEFAULT_REPS = 5

#: The Filter values of the paper's Tables 3 and 5.
PAPER_FILTERS = (0.01, 0.05, 0.1, 0.2)


def _best(fn, reps: int, inner: int = 4) -> float:
    """Best-of-``reps`` mean wall time of ``inner`` back-to-back calls."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _bench_spmv(sizes, reps: int) -> list[dict]:
    records = []
    for size in sizes:
        mat = poisson2d(size)
        rng = np.random.default_rng(size)
        x = rng.standard_normal(mat.ncols)
        plan = SpMVPlan(mat)
        out = np.empty(mat.nrows, dtype=np.float64)
        out_t = np.empty(mat.ncols, dtype=np.float64)

        unplanned = _best(lambda: mat.spmv(x), reps)
        planned = _best(lambda: plan.spmv(x, out=out), reps)
        unplanned_t = _best(lambda: mat.spmv_transpose(x), reps)
        planned_t = _best(lambda: plan.spmv_t(x, out=out_t), reps)
        records.append(
            {
                "grid": int(size),
                "n": mat.nrows,
                "nnz": mat.nnz,
                "unplanned_s": unplanned,
                "planned_s": planned,
                "speedup": unplanned / planned if planned > 0 else float("inf"),
                "unplanned_transpose_s": unplanned_t,
                "planned_transpose_s": planned_t,
                "speedup_transpose": (
                    unplanned_t / planned_t if planned_t > 0 else float("inf")
                ),
            }
        )
    return records


def _bench_pcg(size: int, reps: int, nparts: int = 4) -> dict:
    mat = poisson2d(size)
    partition = RowPartition.contiguous(mat.nrows, nparts)
    dmat = DistMatrix.from_global(mat, partition)
    pre = build_fsai(mat, partition)
    rng = np.random.default_rng(2 * size + 1)
    b = DistVector.from_global(rng.standard_normal(mat.nrows), partition)

    ws = SolverWorkspace(dmat)
    pcg(dmat, b, precond=pre, workspace=ws)  # warm-up: fills buffers/plans
    allocs_before = ws.allocations
    reused = pcg(dmat, b, precond=pre, workspace=ws)
    hot_allocs = ws.allocations - allocs_before

    ws_s = _best(lambda: pcg(dmat, b, precond=pre, workspace=ws), reps, inner=1)
    return {
        "grid": int(size),
        "n": mat.nrows,
        "ranks": nparts,
        "iterations": reused.iterations,
        "workspace_s": ws_s,
        "workspace_allocs_warmup": int(allocs_before),
        "workspace_allocs_hot": int(hot_allocs),
    }


def _bench_setup(size: int, reps: int, nparts: int = 4) -> dict:
    """Seconds of the batched group solves on the level-1 pattern, and the
    re-filter sweep: one FSAIE-Comm workspace finalized at each paper Filter
    value in turn (one pass — a repeat would find the base rows solved)."""
    mat = poisson2d(size)
    pattern = fsai_pattern(mat)
    batched = _best(lambda: compute_g_values(mat, pattern), reps, inner=1)
    ws = ExtensionWorkspace(
        "FSAIE-Comm", mat, RowPartition.contiguous(mat.nrows, nparts), ExtensionMode.COMM
    )
    refilter = []
    for value in PAPER_FILTERS:
        with tracing(NULL_TRACER) as (_, metrics):
            t0 = time.perf_counter()
            ws.finalize(FilterSpec(value, dynamic=True))
            record = {"filter": value, "ms": (time.perf_counter() - t0) * 1e3}
            for rows in ("rows_kept", "rows_base", "rows_solved"):
                record[rows] = int(metrics.value(f"precond.finalize.{rows}") or 0)
        refilter.append(record)
    return {
        "grid": int(size),
        "n": mat.nrows,
        "ranks": nparts,
        "batched_s": batched,
        "refilter": refilter,
    }


def _bench_precond_apply(size: int, reps: int, nparts: int = 4) -> list[dict]:
    """One ``z = Gᵀ(G·r)`` per method through a warm workspace.

    ``nnz`` counts the stored entries of ``G`` and ``Gᵀ`` together — what one
    application streams — so ``ns_per_entry`` is comparable across methods.
    """
    mat = poisson2d(size)
    partition = RowPartition.contiguous(mat.nrows, nparts)
    ws = SolverWorkspace(DistMatrix.from_global(mat, partition))
    r = DistVector.from_global(
        np.random.default_rng(3 * size).standard_normal(mat.nrows), partition
    )
    z = DistVector.zeros(partition)
    spec = FilterSpec(0.01, dynamic=True)
    records = []
    for build in (build_fsai, build_fsaie_comm):
        pre = build(mat, partition, filter=spec)
        pre.apply(r, out=z, workspace=ws)  # warm-up: plans and buffers
        apply_s = _best(lambda: pre.apply(r, out=z, workspace=ws), reps)
        nnz = pre.g.nnz + pre.gt.nnz
        records.append(
            {
                "method": pre.name,
                "grid": int(size),
                "ranks": nparts,
                "nnz": nnz,
                "apply_us": apply_s * 1e6,
                "ns_per_entry": apply_s * 1e9 / nnz,
            }
        )
    return records


def run_suite(
    sizes=DEFAULT_SIZES,
    reps: int = DEFAULT_REPS,
    *,
    quick: bool = False,
) -> dict:
    """Run the full microbenchmark suite and return the result dict.

    ``quick=True`` shrinks sizes and repetitions to smoke-test territory
    (used by ``pytest -m bench_smoke``); numbers are then indicative only.
    """
    if quick:
        sizes = tuple(sizes[:2]) or (16,)
        reps = min(reps, 2)
    sizes = tuple(int(s) for s in sizes)
    spmv = _bench_spmv(sizes, reps)
    largest = max(sizes)
    fsai, comm = precond_apply = _bench_precond_apply(largest, reps)
    result = {
        "suite": "kernels",
        "config": {"sizes": list(sizes), "reps": reps, "quick": quick},
        "spmv": spmv,
        "pcg": _bench_pcg(min(largest, 48), reps),
        "setup": _bench_setup(largest, reps),
        "precond_apply": precond_apply,
    }
    by_grid = {rec["grid"]: rec for rec in spmv}
    result["summary"] = {
        "spmv_speedup_largest": by_grid[largest]["speedup"],
        "spmv_transpose_speedup_largest": by_grid[largest]["speedup_transpose"],
        "pcg_hot_allocs": result["pcg"]["workspace_allocs_hot"],
        # extension entries are nearly free when the time ratio stays below
        # the entry ratio
        "precond_nnz_ratio": comm["nnz"] / fsai["nnz"],
        "precond_apply_ratio": comm["apply_us"] / fsai["apply_us"],
    }
    return result


def write_suite(result: dict, path: str | Path, *, report: bool = True) -> Path:
    """Write a suite result as pretty-printed JSON; returns the path.

    Unless ``report=False``, a companion :class:`repro.observe.RunReport`
    document is written next to it (``<stem>.report.json``) — the comparable
    form consumed by ``repro report --compare`` and
    ``scripts/check_bench_regression.py``.
    """
    path = Path(path)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if report:
        from repro.observe import RunReport

        RunReport.from_bench(result, label=path.stem).save(
            path.with_suffix(".report.json")
        )
    return path


def format_summary(result: dict) -> str:
    """Human-readable table of a :func:`run_suite` result."""
    lines = ["kernel microbenchmarks (best-of-%d)" % result["config"]["reps"], ""]
    lines.append(f"{'grid':>6} {'nnz':>9} {'spmv':>9} {'planned':>9} {'x':>6} "
                 f"{'spmv_t':>9} {'planned_t':>10} {'x':>6}")
    for rec in result["spmv"]:
        lines.append(
            f"{rec['grid']:>6} {rec['nnz']:>9} "
            f"{rec['unplanned_s'] * 1e6:>8.1f}µ {rec['planned_s'] * 1e6:>8.1f}µ "
            f"{rec['speedup']:>5.2f}x "
            f"{rec['unplanned_transpose_s'] * 1e6:>8.1f}µ "
            f"{rec['planned_transpose_s'] * 1e6:>9.1f}µ "
            f"{rec['speedup_transpose']:>5.2f}x"
        )
    p = result["pcg"]
    lines += [
        "",
        f"pcg {p['grid']}x{p['grid']} on {p['ranks']} ranks: warm workspace "
        f"{p['workspace_s'] * 1e3:.2f} ms, {p['iterations']} iterations, "
        f"{p['workspace_allocs_hot']} hot-loop allocations",
    ]
    s = result["setup"]
    lines.append(
        f"fsai setup {s['grid']}x{s['grid']}: batched {s['batched_s'] * 1e3:.2f} ms"
    )
    for rec in s["refilter"]:
        lines.append(
            f"refilter Filter {rec['filter']:<5} on {s['ranks']} ranks: "
            f"{rec['rows_kept']:>6} rows kept {rec['rows_base']:>6} from base "
            f"{rec['rows_solved']:>6} solved {rec['ms']:>8.2f} ms"
        )
    for rec in result["precond_apply"]:
        lines.append(
            f"precond apply {rec['method']:<10} {rec['grid']}x{rec['grid']} on "
            f"{rec['ranks']} ranks: {rec['nnz']:>8} nnz {rec['apply_us']:>8.1f}µ "
            f"{rec['ns_per_entry']:>6.2f} ns/entry"
        )
    summary = result["summary"]
    lines.append(
        f"FSAIE-Comm / FSAI: {summary['precond_nnz_ratio']:.2f}x the entries in "
        f"{summary['precond_apply_ratio']:.2f}x the time"
    )
    return "\n".join(lines)
