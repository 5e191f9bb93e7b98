"""Solve-level benchmark trajectory: ``BENCH_solver.json``.

Where ``BENCH_kernels.json`` (PR 2) tracks kernel micro-counters, this suite
records the *end-to-end* solver facts the paper argues about — iterations,
pattern growth, per-rank imbalance, modeled time per machine — for each
preconditioner pattern on a subset of the Table 1 catalog.  Every number is
deterministic (iteration counts and the analytic cost model, no wall
clocks), so the committed artifact is byte-stable across machines and
``scripts/check_bench.py solver`` can gate it exactly.

Run::

    PYTHONPATH=src python benchmarks/suites.py solver           # BENCH_solver.json
    PYTHONPATH=src python benchmarks/suites.py solver --quick   # fewer matrices
"""

from __future__ import annotations

import harness  # sibling module, shared caches
from repro.core import check_comm_invariance, imbalance_index
from repro.perfmodel import MACHINES

#: Catalog subset: small enough for CI, varied enough to show the tradeoff
#: (msdoor / af_shell7 have clear FSAIE iteration reductions).
DEFAULT_MATRICES = ("PFlow_742", "Fault_639", "msdoor", "af_shell7")
QUICK_MATRICES = ("PFlow_742", "msdoor")
METHODS = ("fsai", "fsaie", "comm")
MODEL_MACHINE = "skylake"
#: The extension filter of every solve: the paper's default, dynamic (Alg. 4).
FILTER_VALUE = 0.01
DYNAMIC = True


def run_solver_suite(*, quick: bool = False) -> dict:
    """Solve every (matrix, method) pair; returns the suite document.

    The ``summary`` mapping is the flat, comparable surface (consumed by
    :meth:`repro.observe.RunReport.from_bench`): iteration counts, nnz
    counts and modeled milliseconds per configuration, plus a 0/1
    communication-invariance flag per matrix.
    """
    matrices = QUICK_MATRICES if quick else DEFAULT_MATRICES
    machine = MACHINES[MODEL_MACHINE]
    solver: dict = {}
    summary: dict = {}
    for name in matrices:
        prob = harness.problem(name)
        per_method: dict = {}
        preconds = {}
        for method in METHODS:
            pre = harness.preconditioner(
                name, method=method, line_bytes=machine.cache_line_bytes,
                filter_value=FILTER_VALUE, dynamic=DYNAMIC,
            )
            result = harness.solve(
                name, method=method, line_bytes=machine.cache_line_bytes,
                filter_value=FILTER_VALUE, dynamic=DYNAMIC,
            )
            modeled = harness.modeled_time(
                name, machine, method=method,
                filter_value=FILTER_VALUE, dynamic=DYNAMIC,
            )
            preconds[method] = pre
            per_method[method] = {
                "pattern": pre.name,
                "iterations": result.iterations,
                "converged": bool(result.converged),
                "nnz": int(pre.nnz),
                "nnz_increase_percent": float(pre.nnz_increase_percent),
                "imbalance": float(imbalance_index(pre.nnz_per_rank())),
                "modeled_ms": float(modeled * 1e3),
            }
            summary[f"{name}.{method}.iterations"] = result.iterations
            summary[f"{name}.{method}.nnz"] = int(pre.nnz)
            summary[f"{name}.{method}.modeled_ms"] = float(modeled * 1e3)
        invariant = check_comm_invariance(preconds["fsai"], preconds["comm"])
        summary[f"{name}.comm.invariant"] = int(invariant)
        solver[name] = {
            "rows": prob.mat.nrows,
            "nnz": prob.mat.nnz,
            "ranks": prob.part.nparts,
            "comm_invariant": bool(invariant),
            "methods": per_method,
        }
    return {
        "suite": "solver",
        "config": {
            "matrices": list(matrices),
            "filter": FILTER_VALUE,
            "dynamic": DYNAMIC,
            "machine": MODEL_MACHINE,
            "rtol": "paper",
            "scale": harness.scale(),
        },
        "solver": solver,
        "summary": summary,
    }


def format_summary(result: dict) -> str:
    lines = ["solver benchmarks (modeled on %s)" % result["config"]["machine"], ""]
    header = f"{'matrix':<12} {'method':<6} {'iters':>6} {'nnz':>8} {'+nnz%':>7} {'model ms':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, entry in sorted(result["solver"].items()):
        for method in METHODS:
            m = entry["methods"][method]
            lines.append(
                f"{name:<12} {method:<6} {m['iterations']:>6} {m['nnz']:>8} "
                f"{m['nnz_increase_percent']:>7.1f} {m['modeled_ms']:>9.3f}"
            )
        lines.append(
            f"{'':<12} comm invariant: {entry['comm_invariant']} "
            f"({entry['ranks']} ranks)"
        )
    return "\n".join(lines)

