"""Fault injection and recovery for the simulated-MPI solver stack.

The paper's solvers run on tens of thousands of cores, where transient
message loss, stragglers and node failures are routine; this package
makes those conditions reproducible offline and verifies that the stack
recovers from them without changing the numerics it is allowed to keep.

Four layers, smallest first:

* :mod:`~repro.resilience.faults` — declarative, seeded
  :class:`FaultPlan` (delays, drops, duplicates, bit-flips, stalls,
  permanent failures) and the :class:`FaultInjector` that the
  :mod:`repro.mpisim.injection` hook exposes to the transport;
* :mod:`~repro.resilience.recovery` — solver checkpoint-restart
  (:class:`ResilienceConfig`, activated via ``pcg(..., resilience=...)``);
* :mod:`~repro.resilience.degraded` — permanent-failure recovery by
  re-partitioning onto the survivors, audited edge-by-edge against the
  communication-invariance checker;
* :mod:`~repro.resilience.chaos` — the scenario harness behind
  ``repro chaos`` and ``scripts/check_resilience.py``, producing a
  versioned :class:`ChaosReport`.

Zero-overhead contract: with no injector installed and no
``resilience=`` config passed, none of this package is imported by the
hot paths — the transport pays one ``is not None`` test per halo update.

See ``docs/RESILIENCE.md`` for the narrative walkthrough.
"""

from repro.resilience.chaos import (
    ChaosError,
    ChaosReport,
    ChaosScenario,
    ScenarioOutcome,
    quick_menu,
    run_chaos,
    standard_menu,
)
from repro.resilience.degraded import FailoverResult, solve_with_failover
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    PayloadBitFlip,
    RankFailure,
    RankStall,
    fault_injection,
)
from repro.resilience.recovery import CheckpointManager, ResilienceConfig

__all__ = [
    "MessageDelay",
    "MessageDrop",
    "MessageDuplicate",
    "PayloadBitFlip",
    "RankStall",
    "RankFailure",
    "FaultPlan",
    "FaultInjector",
    "fault_injection",
    "ResilienceConfig",
    "CheckpointManager",
    "FailoverResult",
    "solve_with_failover",
    "ChaosError",
    "ChaosScenario",
    "ScenarioOutcome",
    "ChaosReport",
    "standard_menu",
    "quick_menu",
    "run_chaos",
]
