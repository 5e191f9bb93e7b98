"""Telemetered SPMD runs against the facts the per-message engine recorded.

A telemetered ``spmd_pipelined_pcg`` / ``spmd_halo_update`` runs on the
clocked executor: its ledger records every charge, halo wait, allreduce
round and message for all ranks at once, and the per-rank histograms, the
sampled spans and the binomial-tree aggregate are built from that record
after the run.  The oracle is what the rank programs produced when each
message went through the engine with a telemetry endpoint on every rank,
recorded in ``tests/fixtures/telemetry_parent_facts.json`` by this module
(``python tests/test_telemetry_ledger.py --record PATH``, run against the
last commit whose engine carried telemetry): every aggregated
:class:`~repro.observe.ClusterTelemetry` (``to_dict()``, so histogram sums,
bounds, sampled spans and the payload the tree shipped), the whole tracker
snapshot with its ``telemetry_*`` section, the solution's bytes and the
iterations must be reproduced exactly.  When the preconditioner's values
move in the last bits (the supernodal FSAI set-up), only the
``solution_sha256`` facts are re-pinned, each from the rank program on the
per-message engine (:mod:`rank_programs`), never from the clocked executor
under test.  A traced run reads the same record as telemetry: under the
tracer, telemetry is served to the same bits.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import ExitStack, nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.core import ExtensionMode, ExtensionWorkspace, FilterSpec, build_fsai
from repro.dist import (
    DistMatrix,
    DistVector,
    RowPartition,
    spmd_halo_update,
    spmd_pipelined_pcg,
)
from repro.instrument import tracing
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import ClockModel, CommTracker
from repro.observe import TelemetryConfig, Timeline
from repro.observe.stream import TelemetryError
from repro.partition import block_partition_2d
from repro.perfmodel import SKYLAKE
from repro.resilience import FaultPlan, fault_injection

FIXTURE = Path(__file__).parent / "fixtures" / "telemetry_parent_facts.json"
GRID = 16
CLOCKS = {"zero": ClockModel(), "skylake": SKYLAKE.clock_model()}
RANKS = (1, 2, 15, 16, 64)
KINDS = ("FSAI", "FSAIE-Comm", "none")
SAMPLES = (None, 8, "all")


def jsonable(x):
    """The JSON shape of a fact (tuple keys joined, NumPy scalars unboxed)."""
    if isinstance(x, dict):
        return {
            (",".join(map(str, k)) if isinstance(k, tuple) else str(k)): jsonable(v)
            for k, v in x.items()
        }
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def digest(arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def cluster_facts(cluster) -> dict:
    """``cluster.to_dict()``, each sampled rank's spans by count and by the
    digest of their JSON (``repr`` floats: exact)."""
    facts = jsonable(cluster.to_dict())
    for entry in facts["sampled"].values():
        spans = entry.pop("spans")
        entry["spans"] = len(spans)
        entry["spans_sha256"] = hashlib.sha256(json.dumps(spans).encode()).hexdigest()
    return facts


def system(ranks: int):
    mat = poisson2d(GRID)
    side = {16: 4, 64: 8}.get(ranks)
    part = (RowPartition(block_partition_2d(GRID, GRID, side, side), ranks) if side
            else RowPartition.contiguous(GRID * GRID, ranks))
    b = DistVector.from_global(paper_rhs(mat, seed=3), part)
    return mat, part, DistMatrix.from_global(mat, part), b


def preconditioner(kind: str, mat, part):
    if kind == "none":
        return None
    if kind == "FSAI":
        return build_fsai(mat, part)
    return ExtensionWorkspace("FSAIE-Comm", mat, part, ExtensionMode.COMM).finalize(
        FilterSpec(0.01, dynamic=True)
    )


def solve_cases():
    """``(name, ranks, kind, overlap, clock, config)`` of every recorded
    solve: each rank count, preconditioner, overlap and clock, with the
    three sampling policies taken in turn; two more cap the sampled spans
    and the straggler list."""
    cases, turn = [], 0
    for ranks in RANKS:
        for kind in KINDS:
            for overlap in (True, False):
                for clock in CLOCKS:
                    sample = SAMPLES[turn % len(SAMPLES)]
                    turn += 1
                    cases.append((f"p{ranks}-{kind}-{'overlap' if overlap else 'fused'}"
                                  f"-{clock}-{sample}", ranks, kind, overlap, clock,
                                  {"rank_sample": sample}))
    cases.append(("p16-FSAI-overlap-skylake-capped", 16, "FSAI", True, "skylake",
                  {"rank_sample": "all", "max_spans": 12, "top_k": 3}))
    cases.append(("p15-none-fused-skylake-capped", 15, "none", False, "skylake",
                  {"rank_sample": "first:2", "max_spans": 5, "top_k": 1}))
    return cases


def halo_cases():
    """``(name, ranks, rank_sample)`` of the ``G`` / ``Gᵀ`` halo audits."""
    return [(f"p{ranks}-{sample}", ranks, sample)
            for ranks, sample in zip(RANKS, (8, "all", None, 8, "all"))]


def solve_facts(ranks, kind, overlap, clock, config) -> dict:
    mat, part, da, b = system(ranks)
    pre = preconditioner(kind, mat, part)
    telemetry, tracker = TelemetryConfig(**config), CommTracker()
    x, iterations = spmd_pipelined_pcg(
        da, b, rtol=1e-8, max_iterations=4, overlap=overlap, tracker=tracker,
        precond_pair=None if pre is None else (pre.g, pre.gt),
        clock=CLOCKS[clock], telemetry=telemetry,
    )
    return jsonable({
        "iterations": iterations,
        "solution_sha256": digest([x.values]),
        "snapshot": tracker.snapshot(),
        "cluster": cluster_facts(telemetry.result),
    })


def halo_facts(ranks, sample) -> dict:
    """The conformance ladder's audit: ``G`` then ``Gᵀ`` of FSAI and of
    FSAIE-Comm, one tracker each, a fresh telemetry config per update."""
    mat, part, _, b = system(ranks)
    facts = {}
    for kind in ("FSAI", "FSAIE-Comm"):
        pre = preconditioner(kind, mat, part)
        tracker, runs = CommTracker(), []
        for g in (pre.g, pre.gt):
            telemetry = TelemetryConfig(rank_sample=sample)
            halos = spmd_halo_update(g, b, tracker, clock=CLOCKS["skylake"],
                                     telemetry=telemetry)
            runs.append({"halos_sha256": digest(halos),
                         "cluster": cluster_facts(telemetry.result)})
        facts[kind] = jsonable({"snapshot": tracker.snapshot(), "updates": runs})
    return facts


def record() -> dict:
    return {
        "_provenance": (
            "recorded by `python tests/test_telemetry_ledger.py --record PATH` on "
            "the last commit whose engine carried in-band telemetry (a telemetry "
            "endpoint on every rank, fed by each send, receive and allreduce; "
            "aggregated over a binomial tree of engine messages)"
        ),
        "solves": {name: solve_facts(*args) for name, *args in solve_cases()},
        "halo_audits": {name: halo_facts(*args) for name, *args in halo_cases()},
    }


FACTS = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else None


@pytest.mark.parametrize("case", solve_cases(), ids=lambda c: c[0])
def test_a_telemetered_solve_reproduces_the_engine(case):
    name, *args = case
    assert solve_facts(*args) == FACTS["solves"][name]


@pytest.mark.parametrize("case", halo_cases(), ids=lambda c: c[0])
def test_a_telemetered_halo_audit_reproduces_the_engine(case):
    name, *args = case
    assert halo_facts(*args) == FACTS["halo_audits"][name]


WATCHERS = {
    "a fault plan": [lambda: fault_injection(FaultPlan())],
    "the tracer and a fault plan": [tracing, lambda: fault_injection(FaultPlan())],
}


@pytest.mark.parametrize("watcher", WATCHERS)
@pytest.mark.parametrize("run", ["solve", "halo"])
def test_telemetry_under_a_watcher_is_a_typed_error(run, watcher):
    """A fault plan needs the engine, which carries no telemetry: asking for
    both names the fault plan instead of leaving ``result`` unset."""
    _, _, da, b = system(4)
    telemetry = TelemetryConfig()
    with ExitStack() as stack:
        for watch in WATCHERS[watcher]:
            stack.enter_context(watch())
        with pytest.raises(TelemetryError, match="while a fault plan watches"):
            if run == "solve":
                spmd_pipelined_pcg(da, b, max_iterations=2, telemetry=telemetry)
            else:
                spmd_halo_update(da, b, telemetry=telemetry)
    assert telemetry.result is None


def traced_run(run: str, traced: bool, telemetered: bool):
    """One run on 15 ranks (Skylake clock) → its telemetry document and,
    traced, its timeline document and metrics."""
    mat, part, da, b = system(15)
    pre = preconditioner("FSAIE-Comm", mat, part)
    telemetry = TelemetryConfig(rank_sample="all") if telemetered else None
    with tracing() if traced else nullcontext() as observed:
        if run == "solve":
            spmd_pipelined_pcg(da, b, max_iterations=4, precond_pair=(pre.g, pre.gt),
                               clock=CLOCKS["skylake"], telemetry=telemetry)
        else:
            spmd_halo_update(pre.g, b, clock=CLOCKS["skylake"], telemetry=telemetry)
    document = cluster_facts(telemetry.result) if telemetered else None
    if not traced:
        return document, None, None
    tracer, metrics = observed
    return document, Timeline.from_tracer(tracer).to_dict(), metrics.collect()


@pytest.mark.parametrize("run", ["solve", "halo"])
def test_telemetry_under_the_tracer_is_served(run):
    """Both read one record: a traced, telemetered run gives the untraced
    run's telemetry and the untelemetered run's timeline and metrics."""
    untraced, _, _ = traced_run(run, traced=False, telemetered=True)
    telemetry, timeline, metrics = traced_run(run, traced=True, telemetered=True)
    _, alone, alone_metrics = traced_run(run, traced=True, telemetered=False)
    assert telemetry == untraced
    assert timeline == alone
    assert metrics == alone_metrics


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or len(sys.argv) != 3:
        sys.exit("usage: test_telemetry_ledger.py --record PATH")
    Path(sys.argv[2]).write_text(json.dumps(record(), separators=(",", ":")) + "\n")
