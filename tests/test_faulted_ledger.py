"""A faulted ``spmd_cg`` on the clock ledger against its rank program on the
per-message engine.

Under a fault plan ``spmd_cg`` keeps a faulted ledger
(``repro.dist.spmd._FaultedLedger``): its messages go one at a time, each
rank's in its program order, through the plan's verdicts.  The oracle is
``spmd_cg``'s rank program on the engine (:func:`rank_programs.engine_cg`)
under the same plan.  On every case of the grid — 1, 2, 15 and 16 ranks,
the all-zero and the Skylake clock, no preconditioner, FSAI and
FSAIE-Comm, every ``standard_menu`` plan whatever its ``engines`` field
says, a mixed drop + delay + duplicate + stall plan on three seeds and a
plan whose first message is lost for good — both runs, traced, must give
the same injector counts, solution bytes, iterations, final clocks,
tracker snapshot, metrics (``collect()``, in creation order on neither
side: the engine creates a counter where its interleaving first needs it),
``resilience.*`` spans and events (name, track, tags, modeled start and
end) and ``mpisim.send`` events (track, tags, modeled time: a message
leaves after its sender's earlier stalls, back-offs and delays, with a
duplicate's envelope's bytes), or the same error.

A :class:`~repro.resilience.RankFailure` is held to its own contract, not
to the engine, which never counted halo updates: the faulted ledger starts
one per halo exchange, and the failed rank raises
:class:`~repro.errors.RankFailedError` at its first message in or after
its ``at_update``-th exchange, as the BSP ``pcg`` raises it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from rank_programs import engine_cg

from repro.core import ExtensionMode, ExtensionWorkspace, FilterSpec, build_fsai, pcg
from repro.dist import DistMatrix, DistVector, RowPartition, spmd_cg
from repro.dist.spmd import _clocked_cg
from repro.errors import RankFailedError, ReproError
from repro.instrument import tracing
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import ClockModel, CommTracker
from repro.partition import block_partition_2d
from repro.perfmodel import SKYLAKE
from repro.resilience import (
    FaultPlan,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    RankFailure,
    RankStall,
    fault_injection,
    standard_menu,
)

GRID = 8
ITERATIONS = 6
CLOCKS = {"zero": ClockModel(), "skylake": SKYLAKE.clock_model()}
RANKS = (1, 2, 15, 16)
KINDS = ("none", "FSAI", "FSAIE-Comm")


def mixed(seed: int) -> FaultPlan:
    """Drops, delays short of and past the timeout, duplicates and a stall."""
    return FaultPlan(
        seed=seed,
        drops=(MessageDrop(0.1),),
        delays=(MessageDelay(0.1, 2e-6), MessageDelay(0.03, 0.08)),
        duplicates=(MessageDuplicate(0.1),),
        stalls=(RankStall(rank=1, seconds=3e-5, at_update=4),),
    )


def plans(ranks: int) -> dict[str, FaultPlan]:
    menu = {sc.name: sc.plan for sc in standard_menu(ranks)}
    menu.update({f"mixed{seed}": mixed(seed) for seed in range(3)})
    menu["lost"] = FaultPlan(seed=9, drops=(MessageDrop(1.0),), max_retries=2)
    return menu


def system(ranks: int, kind: str):
    mat = poisson2d(GRID)
    part = (RowPartition(block_partition_2d(GRID, GRID, 4, 4), 16) if ranks == 16
            else RowPartition.contiguous(GRID * GRID, ranks))
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=3), part)
    if kind == "none":
        return da, b, None
    pre = (build_fsai(mat, part) if kind == "FSAI" else
           ExtensionWorkspace("FSAIE-Comm", mat, part, ExtensionMode.COMM).finalize(
               FilterSpec(0.01, dynamic=True)))
    return da, b, (pre.g, pre.gt)


def run(engine: bool, da, b, pair, plan: FaultPlan, clock: ClockModel) -> dict:
    """One traced faulted solve → everything the two runs must share."""
    tracker, facts = CommTracker(), {}
    with tracing() as (tracer, metrics), np.errstate(over="ignore", invalid="ignore"):
        with fault_injection(plan) as injector:
            try:
                if engine:
                    x, iterations, clocks = engine_cg(da, b, 1e-8, ITERATIONS, pair,
                                                      tracker, clock)
                else:
                    x, iterations, clocks = _clocked_cg(da, b, 1e-8, ITERATIONS, pair,
                                                        tracker, clock, injector)
                facts.update(solution=x.values.tobytes(), iterations=iterations,
                             clocks=np.asarray(clocks, dtype=np.float64).tobytes(),
                             snapshot=tracker.snapshot())
            except ReproError as exc:  # compared below
                facts["error"] = (type(exc), str(exc))
        facts["counts"] = dict(injector.counts)
        if "error" not in facts:  # a failed run's partial traffic follows the interleaving
            facts["metrics"] = sorted(repr(m) for m in metrics.collect())
        facts["resilience"] = sorted(
            (s.thread, s.name, sorted(s.tags.items()), s.start, s.end)
            for s in tracer.spans if s.name.startswith("resilience."))
        if "error" not in facts:  # each message leaves at its sender's clock then
            facts["sends"] = sorted((s.thread, sorted(s.tags.items()), s.start)
                                    for s in tracer.spans if s.name == "mpisim.send")
    return facts


CASES = [(ranks, kind, clock, name) for ranks in RANKS for kind in KINDS
         for clock in CLOCKS for name in plans(ranks)]


@pytest.fixture(scope="module")
def systems():
    return {(ranks, kind): system(ranks, kind) for ranks in RANKS for kind in KINDS}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_the_faulted_ledger_is_the_engine(systems, case):
    ranks, kind, clock, name = case
    da, b, pair = systems[ranks, kind]
    plan = plans(ranks)[name]
    ledger = run(False, da, b, pair, plan, CLOCKS[clock])
    engine = run(True, da, b, pair, plan, CLOCKS[clock])
    assert ledger == engine
    if ranks > 1 and name != "lost":  # every plan but the lost one survives
        assert "error" not in ledger and sum(ledger["counts"].values()) > 0
    if name == "lost" and ranks > 1:
        assert ledger["error"][1].endswith("lost 3 times (max_retries=2); giving up')")


@pytest.mark.parametrize("name", ["mixed0", "duplicate10"])
def test_a_faulted_solve_traced_is_the_faulted_solve(systems, name):
    """Tracing changes no bit, clock or count of a faulted solve."""
    da, b, pair = systems[15, "FSAI"]
    outcomes = []
    for traced in (False, True):
        tracker = CommTracker()
        with tracing() if traced else nullcontext():
            with fault_injection(plans(15)[name]) as injector:
                x, iterations, clocks = _clocked_cg(da, b, 1e-8, ITERATIONS, pair, tracker,
                                                    CLOCKS["skylake"], injector)
        outcomes.append((x.values.tobytes(), iterations, clocks.tobytes(),
                         tracker.snapshot(), dict(injector.counts)))
    assert outcomes[0] == outcomes[1]


# -- RankFailure: the contract ----------------------------------------------
@pytest.fixture(scope="module")
def poisson16():
    mat = poisson2d(16)
    part = RowPartition.contiguous(mat.nrows, 4)
    return (mat, part, DistMatrix.from_global(mat, part),
            DistVector.from_global(paper_rhs(mat, seed=0), part))


def test_a_rank_failure_fires_in_spmd_cg_as_in_pcg(poisson16):
    """``RankFailure(rank=1, at_update=3)`` stops both solvers with
    :class:`RankFailedError` for rank 1, counted once, at the third halo
    update (unpreconditioned CG: the third product with ``A``)."""
    mat, part, da, b = poisson16
    plan = FaultPlan(failures=(RankFailure(rank=1, at_update=3),))
    for solve in (lambda: pcg(da, b, rtol=1e-8), lambda: spmd_cg(da, b, rtol=1e-8)):
        with fault_injection(plan) as injector:
            with pytest.raises(RankFailedError) as failed:
                solve()
        assert failed.value.rank == 1
        assert injector.counts["failures"] == 1
        assert injector.updates == 3


def test_a_rank_failure_counts_each_exchange_of_a_preconditioned_solve(poisson16):
    """With ``G`` and ``Gᵀ`` each CG iteration starts three halo updates;
    the failure fires in the update ``at_update`` names, before any later
    one, and a failure of a rank that never sends or receives never fires."""
    mat, part, da, b = poisson16
    fsai = build_fsai(mat, part)
    for at_update in (1, 2, 5):
        plan = FaultPlan(failures=(RankFailure(rank=2, at_update=at_update),))
        with fault_injection(plan) as injector:
            with pytest.raises(RankFailedError, match="rank 2"):
                spmd_cg(da, b, rtol=1e-8, precond_pair=(fsai.g, fsai.gt))
        assert injector.updates == at_update
    one = RowPartition.contiguous(mat.nrows, 1)
    with fault_injection(FaultPlan(failures=(RankFailure(rank=0),))) as injector:
        spmd_cg(DistMatrix.from_global(mat, one), DistVector.from_global(b.values, one))
    assert injector.counts["failures"] == 0


def test_an_unfaulted_solve_loads_no_resilience_module():
    """The faulted ledger is chosen from the installed injector: a run
    without one never imports :mod:`repro.resilience`."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.dist import DistMatrix, DistVector, RowPartition, spmd_cg\n"
        "from repro.matgen import poisson2d\n"
        "mat = poisson2d(8); part = RowPartition.contiguous(64, 4)\n"
        "spmd_cg(DistMatrix.from_global(mat, part), DistVector.from_global(np.ones(64), part))\n"
        "assert not any(m.startswith('repro.resilience') for m in sys.modules), sys.modules\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
