#!/usr/bin/env python3
"""CI gate for the fault-injection and resilience subsystem.

Run:  PYTHONPATH=src python scripts/check_resilience.py

Four checks, mirroring the contracts documented in docs/RESILIENCE.md:

1. **Acceptance scenario** — under a seeded plan with one transient rank
   stall plus 5% message delays (past the timeout), PCG must converge to
   the *same* final residual as the fault-free run (relative tolerance
   1e-10) while ``halo.retries`` shows the retry path actually ran.
2. **Zero overhead** — with no injector installed, a traced solve must
   record no ``halo.retries`` / ``halo.timeouts`` and import nothing from
   :mod:`repro.resilience` on the hot path.
3. **Degraded mode** — a permanent rank failure must be absorbed by
   :func:`repro.resilience.solve_with_failover`, with the unaffected-edge
   invariance audit passing and the degraded solve converging.
4. **Chaos report** — the quick chaos menu on the BSP solver and the
   standard menu on the SPMD engine must survive end-to-end, and the
   versioned JSON artifact must round-trip through
   :class:`repro.resilience.ChaosReport`.

Exit code 0 when all pass; 1 with one line per failure otherwise.  Wired
into the test suite as ``tests/test_resilience_gate.py`` (marker:
``chaos_smoke``).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core import build_fsai, pcg  # noqa: E402
from repro.dist import DistMatrix, DistVector, RowPartition  # noqa: E402
from repro.instrument import tracing  # noqa: E402
from repro.matgen import paper_rhs, poisson2d  # noqa: E402
from repro.mpisim import get_injector  # noqa: E402
from repro.resilience import (  # noqa: E402
    ChaosReport,
    FaultPlan,
    MessageDelay,
    RankFailure,
    RankStall,
    fault_injection,
    quick_menu,
    run_chaos,
    solve_with_failover,
    standard_menu,
)

RANKS = 4
SEED = 7
RTOL = 1e-8
IDENTICAL_RTOL = 1e-10


def _system():
    mat = poisson2d(16)
    part = RowPartition.from_matrix(mat, RANKS, seed=SEED)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=SEED), part)
    pre = build_fsai(mat, part)
    return mat, da, b, pre


def check_acceptance(problems: list[str]) -> None:
    """Stall + 5% delays: identical residual, retries observed."""
    _, da, b, pre = _system()
    clean = pcg(da, b, precond=pre, rtol=RTOL)
    plan = FaultPlan(
        seed=SEED,
        delays=(MessageDelay(probability=0.05, seconds=0.08),),
        stalls=(RankStall(rank=1, seconds=0.02, at_update=2),),
    )
    with tracing() as (_, metrics):
        with fault_injection(plan) as injector:
            faulty = pcg(da, b, precond=pre, rtol=RTOL)
        retries = metrics.sum_values("halo.retries")
    if not faulty.converged:
        problems.append("acceptance: faulty solve did not converge")
    rel = abs(faulty.final_residual - clean.final_residual) / max(
        abs(clean.final_residual), np.finfo(np.float64).tiny
    )
    if rel > IDENTICAL_RTOL:
        problems.append(
            f"acceptance: residual diverged from clean run (rel diff {rel:.3e})"
        )
    if retries <= 0:
        problems.append("acceptance: halo.retries did not appear in the registry")
    if injector.counts["stalls"] != 1:
        problems.append(
            f"acceptance: expected 1 consumed stall, got {injector.counts['stalls']}"
        )
    print(
        f"acceptance   : rel diff {rel:.1e}, {int(retries)} retries, "
        f"{injector.counts['stalls']} stall(s) — "
        f"{'ok' if rel <= IDENTICAL_RTOL and retries > 0 else 'FAIL'}"
    )


def check_zero_overhead(problems: list[str]) -> None:
    """No injector installed: no retry/timeout metrics, hook returns None."""
    if get_injector() is not None:
        problems.append("zero-overhead: an injector is installed outside the gate")
    _, da, b, pre = _system()
    with tracing() as (_, metrics):
        result = pcg(da, b, precond=pre, rtol=RTOL)
        retries = metrics.sum_values("halo.retries")
        timeouts = metrics.sum_values("halo.timeouts")
    if retries or timeouts:
        problems.append(
            f"zero-overhead: fault-free run recorded retries={retries} "
            f"timeouts={timeouts}"
        )
    print(
        f"zero-overhead: fault-free solve converged={result.converged}, "
        f"retries={int(retries)}, timeouts={int(timeouts)} — "
        f"{'ok' if not (retries or timeouts) else 'FAIL'}"
    )


def check_failover(problems: list[str]) -> None:
    """Permanent rank failure: degrade, audit unaffected edges, re-solve."""
    _, da, b, _ = _system()
    plan = FaultPlan(seed=SEED, failures=(RankFailure(rank=1, at_update=3),))
    with fault_injection(plan):
        outcome = solve_with_failover(
            da, b, precond_builder=lambda a, part: build_fsai(a, part), rtol=RTOL
        )
    if not outcome.failed_over:
        problems.append("failover: rank failure was never injected")
        return
    if not outcome.result.converged:
        problems.append("failover: degraded solve did not converge")
    if not outcome.system.audit.invariant:
        problems.append("failover: unaffected-edge invariance audit failed")
    print(
        f"failover     : rank {outcome.system.failed_rank} absorbed by "
        f"{outcome.system.absorbers}, degraded solve converged="
        f"{outcome.result.converged}, audit invariant="
        f"{outcome.system.audit.invariant} — "
        f"{'ok' if outcome.result.converged and outcome.system.audit.invariant else 'FAIL'}"
    )


def check_chaos_report(problems: list[str]) -> None:
    """Quick menu (BSP) and standard menu (SPMD) survive; the report
    artifact round-trips."""
    mat, _, _, _ = _system()
    for engine, menu in (("bsp", quick_menu(RANKS)), ("spmd", standard_menu(RANKS))):
        report = run_chaos(
            mat,
            ranks=RANKS,
            seed=SEED,
            rtol=RTOL,
            menu=menu,
            engine=engine,
            precond_builder=lambda a, part: build_fsai(a, part),
            matrix_label="poisson2d:16",
        )
        if not report.survived:
            failed = [s.name for s in report.scenarios if not s.survived]
            problems.append(f"chaos ({engine}): scenarios failed: {failed}")
        print(
            f"chaos {engine:<6}: {len(report.scenarios)} scenario(s), survived="
            f"{report.survived} — {'ok' if report.survived else 'FAIL'}"
        )
    with tempfile.TemporaryDirectory() as tmp:
        path = report.save(Path(tmp) / "chaos.json")
        loaded = ChaosReport.load(path)
    if loaded.to_dict() != report.to_dict():
        problems.append("chaos: report did not round-trip through JSON")


def main() -> int:
    problems: list[str] = []
    check_acceptance(problems)
    check_zero_overhead(problems)
    check_failover(problems)
    check_chaos_report(problems)
    for line in problems:
        print(f"FAIL: {line}", file=sys.stderr)
    if problems:
        print(f"{len(problems)} resilience problem(s)", file=sys.stderr)
        return 1
    print("resilience gate clean: acceptance, zero-overhead, failover, chaos")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
