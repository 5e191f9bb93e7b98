"""Kernel plans and buffer-reuse runtime for allocation-free hot loops.

The paper's premise — preconditioner application is bound by memory traffic
and communication, not flops — means the Python runtime must not add
per-iteration allocation and metadata overhead on top.  This package
provides:

* :class:`~repro.kernels.plan.SpMVPlan` — a CSR matrix validated once and
  bound to SciPy's compiled CSR kernel on its own arrays, with
  allocation-free ``spmv(x, out=)`` / ``spmv_t(x, out=)``;
* :class:`~repro.kernels.workspace.SolverWorkspace` — every Krylov solve
  temporary preallocated and reused, threaded through
  :func:`repro.core.cg.pcg` and
  :func:`repro.core.solvers.pipelined_pcg` so warm solves perform zero
  hot-loop array allocations (counted, not asserted — see
  ``scripts/check_no_alloc.py``);
* :func:`~repro.kernels.bench.run_suite` — the microbenchmark suite behind
  ``BENCH_kernels.json`` (``repro bench``).

See ``docs/PERFORMANCE.md`` for the full API walkthrough and invariants.
"""

from repro.kernels.plan import SpMVPlan
from repro.kernels.workspace import SolverWorkspace

__all__ = [
    "SpMVPlan",
    "SolverWorkspace",
    "run_suite",
    "write_suite",
    "format_summary",
]

_BENCH_EXPORTS = ("run_suite", "write_suite", "format_summary")


def __getattr__(name: str):
    # bench drives the solvers, which in turn import this package — loading
    # it lazily keeps the package importable from repro.core.cg
    if name in _BENCH_EXPORTS:
        from repro.kernels import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
