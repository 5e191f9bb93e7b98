"""Traced SPMD runs against the rank programs they stand in for.

A traced ``spmd_cg`` / ``spmd_pipelined_pcg`` / ``spmd_halo_update`` runs
on the clocked executor: its ledger records the kernel of each charge, the
packs, every halo and allreduce-round message and the iteration brackets
for all ranks at once, and each rank's spans are emitted from that record
after the run (``repro.dist.spmd._trace``).  The oracle is the rank program
on the per-message engine under the same tracer (:mod:`rank_programs` on
:mod:`spmd_engine`).  On every case of the grid — each solver, 1, 2, 15
and 16 ranks, the all-zero and the Skylake clock, FSAI, FSAIE-Comm and no
preconditioner — the two must give one :class:`~repro.observe.Timeline`
document (segments, edges, critical path, summary), one metrics
``collect()``, and one multiset of spans: every span the engine opens,
except the receives' instant events and the ``mpisim.wait`` spans of
receives whose message had already arrived (zero long; which of those the
engine opens depends on the order it resumed the ranks in).  The traced
run's solution, iterations and tracker snapshot are the untraced run's.

A few documents are pinned besides, by digest, as the engine recorded
them before traced runs left it (``tests/fixtures/timeline_parent_digests.json``,
written by ``python tests/test_traced_ledger.py --record PATH``).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest
from rank_programs import engine_cg, engine_halo_update, engine_pipelined_pcg

from repro.core import ExtensionMode, ExtensionWorkspace, FilterSpec, build_fsai
from repro.dist import (
    DistMatrix,
    DistVector,
    RowPartition,
    spmd_cg,
    spmd_halo_update,
    spmd_pipelined_pcg,
)
from repro.instrument import tracing
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import ClockModel, CommTracker
from repro.observe import Timeline, TimelineError
from repro.partition import block_partition_2d
from repro.perfmodel import SKYLAKE

FIXTURE = Path(__file__).parent / "fixtures" / "timeline_parent_digests.json"
GRID = 12
ITERATIONS = 6
CLOCKS = {"zero": ClockModel(), "skylake": SKYLAKE.clock_model()}
SOLVERS = ("cg", "pipelined", "pipelined_fused", "halo")
RANKS = (1, 2, 15, 16)
KINDS = ("FSAI", "FSAIE-Comm", "none")


def system(ranks: int):
    mat = poisson2d(GRID)
    part = (RowPartition(block_partition_2d(GRID, GRID, 4, 4), 16) if ranks == 16
            else RowPartition.contiguous(GRID * GRID, ranks))
    b = DistVector.from_global(paper_rhs(mat, seed=3), part)
    return mat, part, DistMatrix.from_global(mat, part), b


def preconditioner(kind: str, mat, part):
    if kind == "none":
        return None
    if kind == "FSAI":
        pre = build_fsai(mat, part)
    else:
        pre = ExtensionWorkspace("FSAIE-Comm", mat, part, ExtensionMode.COMM).finalize(
            FilterSpec(0.01, dynamic=True))
    return pre.g, pre.gt


def run(solver: str, ranks: int, kind: str, clock: str, *, engine: bool,
        traced: bool = True):
    """One run → ``(outcome, tracer, metrics)``; ``outcome`` the solution's
    (or halos') bytes, iterations and tracker snapshot.  ``halo`` updates
    ``G`` (``A`` without a preconditioner)."""
    mat, part, da, b = system(ranks)
    pair = preconditioner(kind, mat, part)
    model, tracker = CLOCKS[clock], CommTracker()
    with tracing() if traced else nullcontext((None, None)) as (tracer, metrics):
        if solver == "halo":
            g = da if pair is None else pair[0]
            halos = (engine_halo_update(g, b, tracker, model) if engine
                     else spmd_halo_update(g, b, tracker, clock=model))
            outcome = (b"".join(h.tobytes() for h in halos), 0)
        elif engine:
            program, extra = {"cg": (engine_cg, ()),
                              "pipelined": (engine_pipelined_pcg, (True,)),
                              "pipelined_fused": (engine_pipelined_pcg, (False,))}[solver]
            x, iterations, _ = program(da, b, 1e-8, ITERATIONS, pair, tracker, *extra, model)
            outcome = (x.values.tobytes(), iterations)
        else:
            kwargs = {} if solver == "cg" else {"overlap": solver == "pipelined"}
            x, iterations = (spmd_cg if solver == "cg" else spmd_pipelined_pcg)(
                da, b, rtol=1e-8, max_iterations=ITERATIONS, precond_pair=pair,
                tracker=tracker, clock=model, **kwargs)
            outcome = (x.values.tobytes(), iterations)
    return (*outcome, tracker.snapshot()), tracer, metrics


def timeline_document(tracer) -> dict | str:
    """``Timeline.to_dict()``, or the error's class when no span of the run
    has a duration (the all-zero clock)."""
    try:
        return Timeline.from_tracer(tracer).to_dict()
    except TimelineError as exc:
        return type(exc).__name__


def span_multiset(tracer) -> list:
    """Every span as ``(track, name, tags, start, end)``, sorted, without
    the receives' instant events and the zero-long receive waits."""
    return sorted(
        (s.thread, s.name, sorted(s.tags.items()), s.start, s.end)
        for s in tracer.spans
        if s.name != "mpisim.recv" and not (s.name == "mpisim.wait" and s.end == s.start)
    )


CASES = [(solver, ranks, kind, clock)
         for solver in SOLVERS for ranks in RANKS for kind in KINDS for clock in CLOCKS]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_the_traced_ledger_is_the_engine(case):
    ledger, ledger_tracer, ledger_metrics = run(*case, engine=False)
    engine, engine_tracer, engine_metrics = run(*case, engine=True)
    assert ledger == engine
    assert ledger_metrics.collect() == engine_metrics.collect()
    assert span_multiset(ledger_tracer) == span_multiset(engine_tracer)
    document = timeline_document(ledger_tracer)
    assert document == timeline_document(engine_tracer)
    # nothing has a duration on the all-zero clock, nor in a lone rank's
    # halo update, which packs and waits for nothing
    assert isinstance(document, dict) == (case[3] == "skylake" and case[:2] != ("halo", 1))


@pytest.mark.parametrize("solver", SOLVERS)
def test_a_traced_run_is_the_untraced_run(solver):
    """Tracing changes no bit of the solution and no traffic."""
    case = (solver, 15, "FSAIE-Comm", "skylake")
    assert run(*case, engine=False)[0] == run(*case, engine=False, traced=False)[0]


def test_equal_instants_are_ordered_by_clock_rank_and_sequence():
    """The documented order of a traced run's spans: a run on the all-zero
    clock stamps everything at 0, so ``tracer.spans`` is rank after rank,
    each rank's in the order its program opened them."""
    _, tracer, _ = run("cg", 4, "FSAI", "zero", engine=False)
    spans = tracer.spans
    ranks = [s.tags.get("rank", s.tags.get("src")) for s in spans]
    assert ranks == sorted(ranks)
    assert [s.span_id for s in spans] == sorted(s.span_id for s in spans)


def test_shuffled_spans_give_one_timeline():
    """A document does not depend on the order the spans come in: edges
    are sorted by ``(time, src, dst, bytes)`` as segments are by start."""
    _, tracer, _ = run("pipelined", 15, "FSAI", "skylake", engine=False)
    spans = [s.to_dict() for s in tracer.spans]
    shuffled = spans[:]
    random.Random(7).shuffle(shuffled)
    assert (Timeline.from_spans(shuffled).to_dict()
            == Timeline.from_spans(spans).to_dict())


# -- documents the engine recorded ----------------------------------------
RECORDED = [("cg", 16, "FSAI", "skylake"), ("cg", 15, "none", "skylake"),
            ("pipelined", 16, "FSAIE-Comm", "skylake"), ("pipelined_fused", 2, "FSAI", "skylake"),
            ("halo", 16, "FSAIE-Comm", "skylake"), ("halo", 15, "none", "skylake")]


def digest(document: dict) -> str:
    """The SHA-256 of a timeline document with its edges in canonical order
    (``repr`` floats: exact)."""
    document = dict(document, edges=sorted(
        document["edges"], key=lambda e: (e["time"], e["src"], e["dst"], e["bytes"])))
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def recorded_facts(solver, ranks, kind, clock) -> dict:
    """What a traced public-API run produces: its timeline and metrics."""
    outcome, tracer, metrics = run(solver, ranks, kind, clock, engine=False)
    return {"iterations": outcome[1],
            "timeline_sha256": digest(Timeline.from_tracer(tracer).to_dict()),
            "metrics": metrics.collect()}


FACTS = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else None


@pytest.mark.parametrize("case", RECORDED, ids=lambda c: "-".join(map(str, c)))
def test_a_traced_run_reproduces_the_recorded_engine(case):
    assert recorded_facts(*case) == FACTS["-".join(map(str, case))]


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or len(sys.argv) != 3:
        sys.exit("usage: test_traced_ledger.py --record PATH")
    facts = {"_provenance": (
        "recorded by `python tests/test_traced_ledger.py --record PATH` on the last "
        "commit whose traced spmd_cg / spmd_pipelined_pcg / spmd_halo_update ran "
        "their rank programs on the per-message engine")}
    facts.update({"-".join(map(str, case)): recorded_facts(*case) for case in RECORDED})
    Path(sys.argv[2]).write_text(json.dumps(facts, indent=1) + "\n")
