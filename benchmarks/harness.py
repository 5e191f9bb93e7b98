"""Shared benchmark harness: cached problems, preconditioners and solves.

Every benchmark file regenerates one table or figure of the paper.  They all
share the caches below so that, e.g., the Skylake filter sweep (Table 3) and
the Zen 2 sweep (Table 6) — identical 64 B cache lines, hence identical
factors and iteration counts — only build and solve each configuration once
per pytest session.

Environment knobs
-----------------
``REPRO_SCALE``
    Multiplies every catalog matrix size (default 1.0 ≈ 10⁴–10⁵ nonzeros,
    minutes for the full suite).  Raise it to push towards paper scale.
``REPRO_SUBSET``
    If set to an integer N, only the first N matrices of each table are
    evaluated (useful for smoke runs).

Timings come from the shared instrumentation registry: every cached build and
solve runs under the harness :data:`TRACER`/:data:`METRICS` pair, and
:func:`recorded_seconds` / :func:`setup_seconds` / :func:`solve_seconds` read
the accumulated span durations back out instead of ad-hoc ``time.time()``
bookkeeping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.cachesim import precond_x_misses_per_rank
from repro.core import (
    CGResult,
    ExtensionMode,
    ExtensionWorkspace,
    FilterSpec,
    Preconditioner,
    build_fsai,
    pcg,
)
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.instrument import MetricsRegistry, Tracer, tracing
from repro.matgen import (
    PAPER_RTOL,
    MatrixCase,
    default_rank_count,
    paper_rhs,
    table1_cases,
    table2_cases,
)
from repro.perfmodel import SKYLAKE, CostModel, MachineSpec

FILTER_VALUES = (0.01, 0.05, 0.1, 0.2)
#: The paper's default hybrid configuration (§5.2): 8 threads per process.
DEFAULT_THREADS = 8

_problems: dict = {}
_workspaces: dict = {}
_preconds: dict = {}
_solves: dict = {}
_misses: dict = {}

#: Shared instrumentation sinks for every cached build/solve in the session.
TRACER = Tracer()
METRICS = MetricsRegistry()


def reset_instrumentation() -> None:
    """Drop recorded spans and metrics (caches stay warm)."""
    TRACER.clear()
    METRICS.clear()


def recorded_seconds(prefix: str) -> float:
    """Total seconds spent in spans whose name starts with ``prefix``.

    Only root-level occurrences count: a ``precond.build`` span containing a
    ``precond.factor`` child contributes once under ``"precond."``.
    """
    spans = TRACER.spans
    by_id = {s.span_id: s for s in spans}

    def outermost(span) -> bool:
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.name.startswith(prefix):
                return False
            parent = by_id.get(parent.parent_id)
        return True

    return sum(
        s.duration for s in spans if s.name.startswith(prefix) and outermost(s)
    )


def setup_seconds() -> float:
    """Accumulated preconditioner construction time (pattern → factor)."""
    return recorded_seconds("precond.") + recorded_seconds("spmd.")


def solve_seconds() -> float:
    """Accumulated solver time across every cached solve."""
    return recorded_seconds("pcg.solve")


def iteration_count(name: str = "pcg.iterations") -> int:
    """Total solver iterations recorded in the metrics registry."""
    return int(METRICS.sum_values(name))


def run_report(label: str = "bench-harness"):
    """The session's accumulated instrumentation as a unified RunReport.

    Bundles the flat metrics registry, per-span timer totals and the derived
    harness aggregates (setup/solve seconds, iteration count) into one
    versioned :class:`repro.observe.RunReport` — the artifact benchmark runs
    emit next to their tables instead of ad-hoc dicts.
    """
    from repro.observe import RunReport

    report = RunReport.from_run(TRACER, METRICS, label=label, scale=scale())
    report.add_metric("harness.setup_seconds", setup_seconds())
    report.add_metric("harness.solve_seconds", solve_seconds())
    report.add_metric("harness.iterations", iteration_count())
    return report


def write_run_report(path, label: str = "bench-harness", *, timeline=None):
    """Write :func:`run_report` as JSON; returns the path written.

    With a :class:`repro.observe.Timeline` the report gains its timeline
    section and a ``<stem>.timeline.json`` companion lands next to it, so a
    benchmark run ships the cross-rank reconstruction alongside its tables.
    """
    from pathlib import Path

    report = run_report(label)
    path = Path(path)
    if timeline is not None:
        report.attach_timeline(timeline)
        timeline.save(path.with_suffix(".timeline.json"))
    return report.save(path)


def spmd_timeline(
    name: str,
    *,
    large: bool = False,
    method: str = "comm",
    line_bytes: int = 64,
    filter_value: float = 0.01,
    dynamic: bool = True,
    rtol: float = PAPER_RTOL,
    max_iterations: int = 500,
):
    """Run one SPMD solve under a fresh tracer; returns its Timeline.

    Unlike the cached :func:`solve` (rank-serial ``pcg``), this traces
    :func:`repro.dist.spmd_cg` on the Skylake clock model, so the trace
    carries every rank's sends, waits and reductions in modeled seconds,
    emitted from the clocked executor's ledger — the input
    :class:`repro.observe.Timeline` needs for critical-path analysis.
    """
    from repro.dist import spmd_cg
    from repro.observe import Timeline

    prob = problem(name, large)
    pre = preconditioner(
        name, large=large, method=method, line_bytes=line_bytes,
        filter_value=filter_value, dynamic=dynamic,
    )
    tracer = Tracer()
    with tracing(tracer, MetricsRegistry()):
        _, iterations = spmd_cg(
            prob.da, prob.b, precond_pair=(pre.g, pre.gt),
            rtol=rtol, max_iterations=max_iterations,
            clock=SKYLAKE.clock_model(),
        )
    return Timeline.from_tracer(
        tracer,
        meta={
            "case": name,
            "method": method,
            "ranks": prob.part.nparts,
            "iterations": iterations,
        },
    )


def scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def cases(large: bool = False) -> list[MatrixCase]:
    out = table2_cases() if large else table1_cases()
    subset = os.environ.get("REPRO_SUBSET")
    if subset:
        out = out[: int(subset)]
    return out


@dataclass
class Problem:
    case: MatrixCase
    mat: object
    part: RowPartition
    da: DistMatrix
    b: DistVector


def problem(name: str, large: bool = False) -> Problem:
    key = (name, large, scale())
    if key not in _problems:
        from repro.matgen import get_case

        case = get_case(name, large=large)
        mat = case.build(scale())
        if large:
            # the large set runs at high rank counts in the paper (§5.5.1,
            # 16k nnz/CPU); proportionally more ranks here
            ranks = default_rank_count(mat.nnz, target_per_rank=2500, lo=8, hi=24)
        else:
            ranks = default_rank_count(mat.nnz)
        part = RowPartition.from_matrix(mat, ranks, seed=case.case_id)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, seed=case.case_id), part)
        _problems[key] = Problem(case, mat, part, da, b)
    return _problems[key]


def workspace(name: str, large: bool, method: str, line_bytes: int) -> ExtensionWorkspace:
    key = (name, large, method, line_bytes, scale())
    if key not in _workspaces:
        prob = problem(name, large)
        mode = ExtensionMode.LOCAL if method == "fsaie" else ExtensionMode.COMM
        label = "FSAIE" if method == "fsaie" else "FSAIE-Comm"
        with tracing(TRACER, METRICS):
            _workspaces[key] = ExtensionWorkspace(
                label, prob.mat, prob.part, mode, line_bytes=line_bytes
            )
    return _workspaces[key]


def preconditioner(
    name: str,
    *,
    large: bool = False,
    method: str = "comm",
    line_bytes: int = 64,
    filter_value: float = 0.01,
    dynamic: bool = True,
) -> Preconditioner:
    """``method`` ∈ {"fsai", "fsaie", "comm"}; filters ignored for fsai."""
    if method == "fsai":
        key = (name, large, "fsai", scale())
        if key not in _preconds:
            prob = problem(name, large)
            with tracing(TRACER, METRICS):
                _preconds[key] = build_fsai(prob.mat, prob.part)
        return _preconds[key]
    key = (name, large, method, line_bytes, filter_value, dynamic, scale())
    if key not in _preconds:
        ws = workspace(name, large, method, line_bytes)
        with tracing(TRACER, METRICS):
            _preconds[key] = ws.finalize(FilterSpec(filter_value, dynamic=dynamic))
    return _preconds[key]


def solve(
    name: str,
    *,
    large: bool = False,
    method: str = "comm",
    line_bytes: int = 64,
    filter_value: float = 0.01,
    dynamic: bool = True,
) -> CGResult:
    """PCG under the paper's protocol; cached per configuration."""
    key = (name, large, method, line_bytes, filter_value, dynamic, scale())
    if key not in _solves:
        prob = problem(name, large)
        pre = preconditioner(
            name,
            large=large,
            method=method,
            line_bytes=line_bytes,
            filter_value=filter_value,
            dynamic=dynamic,
        )
        with tracing(TRACER, METRICS):
            _solves[key] = pcg(
                prob.da, prob.b, precond=pre, rtol=PAPER_RTOL, max_iterations=50_000
            )
    return _solves[key]


def precond_misses(pre: Preconditioner, machine: MachineSpec, threads: int) -> np.ndarray:
    key = (id(pre), machine.name, threads)
    if key not in _misses:
        _misses[key] = precond_x_misses_per_rank(pre.g, pre.gt, machine.l1.scaled(threads))
    return _misses[key]


def modeled_time(
    name: str,
    machine: MachineSpec,
    *,
    large: bool = False,
    method: str = "comm",
    filter_value: float = 0.01,
    dynamic: bool = True,
    threads: int = DEFAULT_THREADS,
) -> float:
    """Iterations (measured) × modeled iteration time on ``machine``."""
    line_bytes = machine.cache_line_bytes
    prob = problem(name, large)
    pre = preconditioner(
        name,
        large=large,
        method=method,
        line_bytes=line_bytes,
        filter_value=filter_value,
        dynamic=dynamic,
    )
    result = solve(
        name,
        large=large,
        method=method,
        line_bytes=line_bytes,
        filter_value=filter_value,
        dynamic=dynamic,
    )
    model = CostModel(machine, threads_per_process=threads)
    cost = model.iteration_cost(
        prob.da, pre, precond_misses=precond_misses(pre, machine, threads)
    )
    return result.iterations * cost.total


def sweep_times(
    name: str,
    machine: MachineSpec,
    *,
    large: bool = False,
    method: str = "comm",
    dynamic: bool = True,
) -> dict[float, float]:
    """Modeled time per Filter value (the paper's per-matrix sweeps)."""
    return {
        f: modeled_time(
            name, machine, large=large, method=method, filter_value=f, dynamic=dynamic
        )
        for f in FILTER_VALUES
    }


def best_filter_time(
    name: str, machine: MachineSpec, *, large: bool = False, method: str = "comm",
    dynamic: bool = True,
) -> float:
    return min(sweep_times(name, machine, large=large, method=method, dynamic=dynamic).values())
