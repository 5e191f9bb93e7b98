"""Chaos harness: run the solver under seeded fault plans, report survival.

A *scenario* pairs a :class:`~repro.resilience.FaultPlan` with the
expectation it must meet.  Scenarios whose faults only cost time (delays,
drops-with-retransmit, transient stalls) must reproduce the fault-free
final residual to ``identical_rtol`` — the transport-level recovery is
supposed to be invisible to the numerics.  Scenarios that corrupt
payloads (bit-flips) or kill ranks only have to *converge*: the
checkpoint-restart and degraded-mode paths change the iteration history,
so bitwise identity is not the contract there.

:func:`run_chaos` executes a menu of scenarios against one matrix,
collecting per-scenario injector counts and the ``halo.retries`` /
``pcg.rollbacks``-style metrics into a versioned
:class:`ChaosReport` (``format: repro-chaos-report``), the artifact the
``repro chaos`` CLI subcommand prints and ``scripts/check_resilience.py``
gates on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.instrument import tracing
from repro.resilience.faults import (
    FaultPlan,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    PayloadBitFlip,
    RankStall,
    fault_injection,
)
from repro.resilience.recovery import ResilienceConfig

__all__ = [
    "CHAOS_FORMAT",
    "CHAOS_VERSION",
    "ChaosError",
    "ChaosScenario",
    "ScenarioOutcome",
    "ChaosReport",
    "standard_menu",
    "quick_menu",
    "run_chaos",
]

CHAOS_FORMAT = "repro-chaos-report"
CHAOS_VERSION = 1

#: Tolerance for "same final residual as the fault-free run" (relative).
IDENTICAL_RTOL = 1e-10

#: The bit-flip scenario's rate, in flips per halo update.  Per message it
#: would grow with the rank count: at 0.002 per message, FSAI's three halo
#: updates per iteration carry 0.32 flips per 10-iteration checkpoint window
#: at 4 ranks (poisson2d:16), 2.96 at 16 (poisson2d:32) and 14 at 64
#: (poisson2d:64), and checkpoint-restart recovers from rare flips only.
BITFLIPS_PER_UPDATE = 0.01


class ChaosError(ReproError):
    """A chaos report artifact is malformed or has the wrong format."""


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault plan plus the survival contract it must meet.

    ``expect_identical`` requires the final residual to match the clean
    run to ``identical_rtol``; otherwise convergence alone suffices.
    ``engines`` restricts the scenario to the engines where its faults
    are meaningful (duplicates need a receiver that drops the second copy,
    so SPMD only; bit-flips
    need checkpoint-restart, which only the BSP ``pcg`` has).  A bit-flip
    rule's probability is per halo update: :func:`run_chaos` spreads it
    over the messages of one update of the solve it runs.
    """

    name: str
    plan: FaultPlan
    description: str = ""
    expect_identical: bool = True
    engines: tuple[str, ...] = ("bsp", "spmd")


@dataclass
class ScenarioOutcome:
    """What one scenario did to one solve."""

    name: str
    description: str
    engine: str
    plan: dict
    survived: bool
    converged: bool
    expect_identical: bool
    iterations: int
    final_residual: float
    residual_rel_diff: float
    retries: int
    timeouts: int
    checkpoints: int
    rollbacks: int
    injected: dict = field(default_factory=dict)
    error: str | None = None

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "description": self.description,
            "engine": self.engine,
            "plan": self.plan,
            "survived": self.survived,
            "converged": self.converged,
            "expect_identical": self.expect_identical,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "residual_rel_diff": self.residual_rel_diff,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "checkpoints": self.checkpoints,
            "rollbacks": self.rollbacks,
            "injected": self.injected,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioOutcome":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**doc)


@dataclass
class ChaosReport:
    """Versioned survival report of one chaos run (JSON round-trippable)."""

    meta: dict
    clean: dict
    scenarios: list[ScenarioOutcome] = field(default_factory=list)

    @property
    def survived(self) -> bool:
        """True when every scenario met its contract."""
        return all(s.survived for s in self.scenarios)

    def to_dict(self) -> dict:
        """JSON-serialisable form (``format``/``version`` stamped)."""
        return {
            "format": CHAOS_FORMAT,
            "version": CHAOS_VERSION,
            "meta": self.meta,
            "clean": self.clean,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    def save(self, path: str | Path) -> Path:
        """Write the report as JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ChaosReport":
        """Read a report written by :meth:`save` (format/version checked)."""
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ChaosError(f"cannot read chaos report {path}: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != CHAOS_FORMAT:
            raise ChaosError(
                f"{path} is not a chaos report (format "
                f"{doc.get('format') if isinstance(doc, dict) else '?'!r})"
            )
        if doc.get("version") != CHAOS_VERSION:
            raise ChaosError(
                f"{path}: unsupported chaos report version {doc.get('version')!r}"
            )
        scenarios = [ScenarioOutcome.from_dict(s) for s in doc.get("scenarios", [])]
        return cls(meta=doc.get("meta", {}), clean=doc.get("clean", {}),
                   scenarios=scenarios)

    def render(self) -> str:
        """Human-readable survival table."""
        lines = [
            f"chaos report — matrix {self.meta.get('matrix', '?')} "
            f"ranks={self.meta.get('ranks', '?')} seed={self.meta.get('seed', '?')} "
            f"engine={self.meta.get('engine', '?')}",
            f"clean run: {self.clean.get('iterations', '?')} iterations, "
            f"final residual {self.clean.get('final_residual', float('nan')):.3e}",
            "",
        ]
        header = (
            f"{'scenario':<18} {'verdict':<9} {'iters':>5} {'rel.diff':>9} "
            f"{'retries':>7} {'rollbk':>6}  injected"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for s in self.scenarios:
            verdict = "SURVIVED" if s.survived else "FAILED"
            diff = f"{s.residual_rel_diff:.1e}" if np.isfinite(s.residual_rel_diff) else "n/a"
            injected = ", ".join(f"{k}={v}" for k, v in sorted(s.injected.items()) if v)
            lines.append(
                f"{s.name:<18} {verdict:<9} {s.iterations:>5} {diff:>9} "
                f"{s.retries:>7} {s.rollbacks:>6}  {injected or '-'}"
            )
            if s.error:
                lines.append(f"{'':<18} error: {s.error}")
        lines.append("")
        lines.append(
            "verdict: ALL SURVIVED" if self.survived else "verdict: FAILURES PRESENT"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def standard_menu(ranks: int = 4) -> list[ChaosScenario]:
    """The default scenario sweep (the one the CI gate runs).

    Time-only faults (delay/drop/stall) carry ``expect_identical`` — the
    retransmitting transport must leave the numerics untouched; the
    bit-flip scenario relies on checkpoint-restart and only has to
    converge.
    """
    stall_rank = min(1, ranks - 1)
    return [
        ChaosScenario(
            "delay5",
            FaultPlan(delays=(MessageDelay(probability=0.05, seconds=0.08),)),
            description="5% of messages delayed past the timeout (retry path)",
        ),
        ChaosScenario(
            "stall",
            FaultPlan(stalls=(RankStall(rank=stall_rank, seconds=0.02, at_update=2),)),
            description="one transient rank stall at its 2nd update",
        ),
        ChaosScenario(
            "stall+delay5",
            FaultPlan(
                delays=(MessageDelay(probability=0.05, seconds=0.08),),
                stalls=(RankStall(rank=stall_rank, seconds=0.02, at_update=2),),
            ),
            description="the acceptance scenario: stall plus 5% delays",
        ),
        ChaosScenario(
            "drop10",
            FaultPlan(drops=(MessageDrop(probability=0.10),)),
            description="10% of messages dropped (retransmit path)",
        ),
        ChaosScenario(
            "duplicate10",
            FaultPlan(duplicates=(MessageDuplicate(probability=0.10),)),
            description="10% of messages duplicated (receiver dedup)",
            engines=("spmd",),
        ),
        ChaosScenario(
            "bitflip",
            FaultPlan(bitflips=(PayloadBitFlip(probability=BITFLIPS_PER_UPDATE, bit=62),)),
            description="rare high-exponent bit-flips (checkpoint-restart path)",
            expect_identical=False,
            engines=("bsp",),
        ),
    ]


def quick_menu(ranks: int = 4) -> list[ChaosScenario]:
    """A two-scenario subset for smoke runs."""
    menu = standard_menu(ranks)
    return [menu[0], menu[2]]


def _per_message(plan: FaultPlan, messages_per_update: float) -> FaultPlan:
    """``plan`` with its bit-flip rates, given per halo update, spread over
    the ``messages_per_update`` messages of one update."""
    if not plan.bitflips or not messages_per_update:
        return plan
    return replace(plan, bitflips=tuple(
        replace(rule, probability=rule.probability / messages_per_update)
        for rule in plan.bitflips
    ))


# ----------------------------------------------------------------------
def run_chaos(
    mat,
    *,
    ranks: int = 4,
    seed: int = 0,
    rtol: float = 1e-8,
    max_iterations: int = 10_000,
    menu: list[ChaosScenario] | None = None,
    engine: str = "bsp",
    precond_builder: Callable | None = None,
    resilience: ResilienceConfig | None = None,
    identical_rtol: float = IDENTICAL_RTOL,
    matrix_label: str = "?",
) -> ChaosReport:
    """Run every scenario in ``menu`` against ``mat``; return the report.

    ``precond_builder(A_global, partition)`` builds the preconditioner
    per run (``None`` solves unpreconditioned).  ``engine`` selects the
    deterministic BSP solver (:func:`repro.core.pcg`) or the SPMD one
    (:func:`repro.dist.spmd_cg`, one message at a time under a plan); scenarios declaring other
    engines are skipped.  The clean baseline runs first, fault-free, and
    every scenario's final residual is compared against it.
    """
    from repro.core.cg import pcg
    from repro.dist.matrix import DistMatrix
    from repro.dist.partition_map import RowPartition
    from repro.dist.spmd import spmd_cg
    from repro.dist.vector import DistVector
    from repro.matgen import paper_rhs

    if engine not in ("bsp", "spmd"):
        raise ChaosError(f"unknown engine {engine!r} (expected 'bsp' or 'spmd')")
    if menu is None:
        menu = standard_menu(ranks)
    if resilience is None:
        resilience = ResilienceConfig()

    part = RowPartition.from_matrix(mat, ranks, seed=seed)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=seed), part)
    pre = precond_builder(mat, part) if precond_builder is not None else None
    pair = (pre.g, pre.gt) if pre is not None else None
    updates = [da.schedule] + ([pre.g.schedule, pre.gt.schedule] if pre is not None else [])
    messages_per_update = sum(len(s.edges()) for s in updates) / len(updates)

    def solve(with_resilience: bool):
        """One solve on the selected engine → (converged, iters, final_rel)."""
        if engine == "bsp":
            res = pcg(
                da, b, precond=pre, rtol=rtol, max_iterations=max_iterations,
                resilience=resilience if with_resilience else None,
            )
            return res.converged, res.iterations, res.final_residual
        x, iters = spmd_cg(
            da, b, rtol=rtol, max_iterations=max_iterations, precond_pair=pair
        )
        r = b.copy().axpy(-1.0, da.spmv(x))
        final = r.norm2()
        norm0 = b.copy().norm2()
        return final <= rtol * norm0 * 1.001, iters, final

    _, clean_iters, clean_final = solve(with_resilience=False)
    clean = {
        "iterations": clean_iters,
        "final_residual": clean_final,
        "rtol": rtol,
    }

    outcomes: list[ScenarioOutcome] = []
    for idx, sc in enumerate(menu):
        if engine not in sc.engines:
            continue
        plan = _per_message(
            sc.plan.with_seed(seed + idx if sc.plan.seed == 0 else sc.plan.seed),
            messages_per_update,
        )
        needs_ckpt = bool(plan.bitflips)
        error = None
        converged, iters, final = False, 0, float("nan")
        with tracing() as (_, metrics):
            # a flipped exponent overflows dot products until the rollback
            with fault_injection(plan) as injector, \
                    np.errstate(over="ignore", invalid="ignore"):
                try:
                    converged, iters, final = solve(with_resilience=needs_ckpt)
                except ReproError as exc:
                    error = f"{type(exc).__name__}: {exc}"
            retries = int(
                metrics.sum_values("halo.retries")
                + metrics.sum_values("mpisim.retries")
            )
            timeouts = int(
                metrics.sum_values("halo.timeouts")
                + metrics.sum_values("mpisim.timeouts")
            )
            checkpoints = int(metrics.sum_values("pcg.checkpoints"))
            rollbacks = int(metrics.sum_values("pcg.rollbacks"))
        rel_diff = (
            abs(final - clean_final) / max(abs(clean_final), np.finfo(np.float64).tiny)
            if np.isfinite(final)
            else float("inf")
        )
        survived = (
            error is None
            and converged
            and (not sc.expect_identical or rel_diff <= identical_rtol)
        )
        outcomes.append(
            ScenarioOutcome(
                name=sc.name,
                description=sc.description,
                engine=engine,
                plan=plan.to_dict(),
                survived=survived,
                converged=converged,
                expect_identical=sc.expect_identical,
                iterations=iters,
                final_residual=final,
                residual_rel_diff=rel_diff,
                retries=retries,
                timeouts=timeouts,
                checkpoints=checkpoints,
                rollbacks=rollbacks,
                injected={k: v for k, v in injector.counts.items() if v},
                error=error,
            )
        )

    meta = {
        "matrix": matrix_label,
        "n": int(mat.nrows),
        "ranks": int(ranks),
        "seed": int(seed),
        "engine": engine,
        "preconditioned": pre is not None,
        "identical_rtol": identical_rtol,
        "scenarios": len(outcomes),
    }
    return ChaosReport(meta=meta, clean=clean, scenarios=outcomes)

