"""The one SPMD engine against recorded facts, and against itself.

``engine="threads"`` and ``engine="events"`` were replaced by a single
cooperative scheduler on a modeled clock (:mod:`spmd_engine`, the oracle), so
engine parity cannot be asserted between two live engines any more.  What
is pinned here instead:

* **parity with recorded facts** — ``tests/fixtures/spmd_parent_facts.json``
  holds what the last commit with both engines produced (they agreed on
  every entry): collective results, tracker snapshots, ``mpisim.*``
  counters, fault-plan verdicts, and the iterations, traffic and
  solutions of ``spmd_cg`` / ``spmd_pipelined_pcg`` on ``poisson2d(32)``
  over 16 ranks.  The new engine must reproduce them bitwise — except the
  solutions, which moved by rounding when the rank programs took the
  compiled CSR kernel: they are pinned by digest and must stay within
  1e-12 relative of the deleted engines' solutions;
* **determinism** — two runs give identical results, snapshots, per-rank
  final clocks and message order, also under a ``FaultPlan``;
* **tracing under one thread** — spans held across an ``await`` on
  interleaved ranks keep their own parents and their own rank's clock.
"""

from __future__ import annotations

import hashlib
import json
import operator
from pathlib import Path

import numpy as np
import p2p_collectives as coll
import pytest
from spmd_engine import run_spmd

from repro.core import build_fsai
from repro.dist import (
    DistMatrix,
    DistVector,
    RowPartition,
    spmd_cg,
    spmd_halo_update,
    spmd_pipelined_pcg,
)
from repro.errors import CommError
from repro.instrument import tracing
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import ClockModel, CommTracker
from repro.partition import block_partition_2d
from repro.resilience import (
    FaultPlan,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    RankStall,
    fault_injection,
)

SIZE = 8
FACTS = json.loads(
    (Path(__file__).parent / "fixtures" / "spmd_parent_facts.json").read_text()
)


def jsonable(x):
    """The JSON shape the facts were recorded in (tuple keys joined)."""
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


def run_observed(prog, size=SIZE, **kwargs):
    """One traced, tracked run → the recorded-facts document of it."""
    tracker = CommTracker()
    with tracing() as (_, metrics):
        results = run_spmd(prog, size, tracker=tracker, **kwargs)
    return jsonable({
        "results": results,
        "snapshot": tracker.snapshot(),
        "counters": {
            name: metrics.sum_values(name)
            for name in ("mpisim.messages", "mpisim.bytes")
        },
    })


def assert_parity(prog, name):
    """Equal to what both old engines produced, and to a second run."""
    first = run_observed(prog)
    assert first == FACTS["collectives"][name]
    assert run_observed(prog) == first


class TestCollectiveParity:
    """The allreduce, and the textbook collectives as rank programs over
    ``send`` / ``recv`` (:mod:`p2p_collectives`), which the recorded
    engines ran as runtime collectives with the same messages."""

    def test_bcast(self):
        async def prog(comm):
            return await coll.bcast(comm, "payload" if comm.rank == 3 else None, root=3)

        assert_parity(prog, "bcast")

    def test_allreduce(self):
        async def prog(comm):
            total = await comm.allreduce(np.full(4, float(comm.rank + 1)))
            return total.tolist()

        assert_parity(prog, "allreduce")

    def test_alltoall(self):
        async def prog(comm):
            return await coll.alltoall(comm, [comm.rank * 100 + d for d in range(comm.size)])

        assert_parity(prog, "alltoall")

    def test_reduce_scatter(self):
        async def prog(comm):
            chunks = [
                np.full(2, float(comm.rank + d), dtype=np.float64)
                for d in range(comm.size)
            ]
            return (await coll.reduce_scatter(comm, chunks, operator.add)).tolist()

        assert_parity(prog, "reduce_scatter")

    def test_barrier_and_sendrecv_ring(self):
        async def prog(comm):
            await coll.barrier(comm)
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            got = await coll.sendrecv(comm, comm.rank, dest=right, source=left)
            return got == left

        assert_parity(prog, "barrier_and_sendrecv_ring")


async def halo_prog(comm):
    # a small neighbour exchange, repeated: enough traffic for the
    # probabilistic faults to fire
    total = 0.0
    for step in range(6):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        comm.send(np.full(8, float(comm.rank + step)), right, tag=step)
        total += float((await comm.recv(left, tag=step)).sum())
    return total, comm.now()


def run_with_plan(plan, **kwargs):
    """→ (recorded-facts document, per-rank final clocks, event order)."""
    tracker = CommTracker()
    with tracing() as (tracer, metrics):
        with fault_injection(plan) as inj:
            out = run_spmd(halo_prog, 4, tracker=tracker, **kwargs)
        counts = dict(inj.counts)
    document = jsonable({
        "result": [total for total, _ in out],
        "snapshot": tracker.snapshot(),
        "counts": counts,
        "metrics": {
            name: metrics.sum_values(name)
            for name in (
                "mpisim.messages",
                "mpisim.bytes",
                "mpisim.dup_messages",
                "resilience.stalls",
            )
        },
    })
    order = [
        (s.name, s.tags.get("src"), s.tags.get("dst"), s.tags.get("tag"), s.start)
        for s in sorted(tracer.spans, key=lambda s: s.span_id)
        if s.name.startswith(("mpisim.", "resilience."))
    ]
    return document, [clock for _, clock in out], order


class TestFaultParity:
    """Fault verdicts are seeded per (src, dst, tag, sequence): the same
    plan must produce the drops/stalls/duplicates the old engines did."""

    @pytest.mark.parametrize("name", ["drop", "duplicate", "stall"])
    def test_verdicts_match_thread_engine(self, name):
        plan = {
            "drop": FaultPlan(seed=11, drops=(MessageDrop(probability=0.2),)),
            "duplicate": FaultPlan(seed=12, duplicates=(MessageDuplicate(probability=0.2),)),
            "stall": FaultPlan(seed=13, stalls=(RankStall(rank=1, seconds=0.01, at_update=1),)),
        }[name]
        document, _, _ = run_with_plan(plan)
        assert document == FACTS["faults"][name]
        assert sum(document["counts"].values()) > 0  # the plan actually fired

    def test_faults_advance_the_clock_and_nothing_sleeps(self):
        """A stall charges its full nominal seconds to the stalled rank —
        far beyond the plan's ``sleep_cap`` — and reaches its neighbours
        only through the messages that depend on it."""
        plan = FaultPlan(seed=13, stalls=(RankStall(rank=1, seconds=2.5, at_update=1),))
        _, clocks, _ = run_with_plan(plan)
        assert clocks[1] == 2.5
        assert max(clocks) == 2.5 and min(clocks) >= 0.0

    def test_runs_under_a_fault_plan_are_deterministic(self):
        plan = FaultPlan(
            seed=5,
            drops=(MessageDrop(probability=0.15),),
            delays=(MessageDelay(probability=0.3, seconds=0.002),),
            duplicates=(MessageDuplicate(probability=0.1),),
            stalls=(RankStall(rank=2, seconds=0.01, at_update=2),),
        )
        clock = ClockModel(alpha=1e-4, beta=1e-8)
        first = run_with_plan(plan, clock=clock)
        assert run_with_plan(plan, clock=clock) == first
        assert sum(first[0]["counts"].values()) > 0
        assert any(c > 0 for c in first[1])


class TestEventScheduling:
    def test_one_worker_cannot_deadlock(self):
        """Everything runs on one thread: a parked receiver must hand it
        to the sender whose message it needs."""

        async def prog(comm):
            if comm.rank == 0:
                return await comm.recv(comm.size - 1)
            if comm.rank == comm.size - 1:
                comm.send(comm.rank, 0)
            return None

        assert run_spmd(prog, 4)[0] == 3

    def test_many_ranks_complete_quickly(self):
        async def prog(comm):
            return float(await comm.allreduce(1.0))

        assert run_spmd(prog, 256) == [256.0] * 256

    def test_unknown_engine_rejected(self):
        """The solver wrappers keep ``engine=`` for recorded callers: the
        only value is ``"events"``; ``"threads"`` says where it went."""
        mat = poisson2d(4)
        part = RowPartition.contiguous(mat.nrows, 2)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(np.ones(mat.nrows), part)
        for wrapper in (spmd_halo_update, spmd_cg, spmd_pipelined_pcg):
            with pytest.raises(CommError, match="engine"):
                wrapper(da, b, engine="fibers")
            with pytest.raises(CommError, match="gone"):
                wrapper(da, b, engine="threads")
        assert len(spmd_halo_update(da, b, engine="events")) == 2


class TestRecordedSolves:
    """Parity of the two SPMD solvers with the deleted engines: iterations,
    messages, bytes and snapshots bitwise; the solution to 1e-12 relative
    (the compiled kernel sums rows in another order than ``add.reduceat``),
    and bitwise the digest pinned when it moved."""

    @pytest.fixture(scope="class")
    def system(self):
        n = 32
        mat = poisson2d(n)
        part = RowPartition(block_partition_2d(n, n, 4, 4), 16)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, seed=0), part)
        fsai = build_fsai(mat, part)
        return da, b, (fsai.g, fsai.gt)

    @staticmethod
    def snapshot_digest(tracker):
        doc = {
            k: sorted((list(kk) if isinstance(kk, tuple) else kk, v) for kk, v in d.items())
            for k, d in tracker.snapshot().items()
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("solver", [spmd_cg, spmd_pipelined_pcg])
    def test_solution_and_snapshot_match_the_recorded_digests(self, system, solver):
        da, b, pair = system
        recorded = FACTS["solves"][solver.__name__]
        tracker = CommTracker()
        x, iterations = solver(da, b, rtol=1e-8, precond_pair=pair, tracker=tracker)
        solution = np.ascontiguousarray(x.to_global())
        digest = hashlib.sha256(solution.tobytes()).hexdigest()
        assert iterations == recorded["iterations"]
        assert digest == recorded["solution_sha256"]
        deleted = np.array(recorded["deleted_engines_solution"])
        assert (hashlib.sha256(deleted.tobytes()).hexdigest()
                == recorded["deleted_engines_solution_sha256"])
        assert np.linalg.norm(solution - deleted) <= 1e-12 * np.linalg.norm(deleted)
        assert self.snapshot_digest(tracker) == recorded["snapshot_sha256"]
        assert tracker.total_messages == recorded["messages"]
        assert tracker.total_bytes == recorded["bytes"]

    def test_a_clock_changes_when_not_what(self, system):
        """The clock says when a message arrives, never which one a receive
        matches: results and traffic are independent of the clock model."""
        da, b, pair = system
        recorded = FACTS["solves"]["spmd_cg"]
        tracker = CommTracker()
        x, _ = spmd_cg(
            da, b, rtol=1e-8, precond_pair=pair, tracker=tracker,
            clock=ClockModel(alpha=1.5e-6, beta=8e-11, flop=5e-10, byte=8e-11),
        )
        digest = hashlib.sha256(np.ascontiguousarray(x.to_global()).tobytes()).hexdigest()
        assert digest == recorded["solution_sha256"]
        assert self.snapshot_digest(tracker) == recorded["snapshot_sha256"]


class TestDeterminism:
    @staticmethod
    async def prog(comm):
        """Irregular traffic on an irregular schedule: ranks do different
        amounts of modeled work between a ring shift, a tree and an
        allreduce."""
        acc = 0.0
        for step in range(5):
            comm.advance(1e-6 * ((comm.rank * 7 + step * 3) % 5))
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            acc += await coll.sendrecv(comm, float(comm.rank + step), dest=right,
                                       source=left)
            acc += await comm.allreduce(acc)
            gathered = await coll.gather(comm, acc, root=step % comm.size)
            if gathered is not None:
                acc += sum(gathered)
        return acc, comm.now()

    def run_once(self):
        tracker = CommTracker()
        with tracing() as (tracer, _):
            out = run_spmd(self.prog, 7, tracker=tracker,
                           clock=ClockModel(alpha=2e-6, beta=1e-9))
        order = [
            (s.name, s.tags.get("src"), s.tags.get("dst"), s.tags.get("tag"),
             s.start, s.end)
            for s in sorted(tracer.spans, key=lambda s: s.span_id)
        ]
        return out, tracker.snapshot(), order

    def test_two_runs_are_identical(self):
        """Results, snapshots, final clocks, and every span's place in the
        recording order and its modeled timestamps."""
        first = self.run_once()
        assert self.run_once() == first
        clocks = [clock for _, clock in first[0]]
        assert all(c > 0 for c in clocks)


class TestTracingAcrossAwaits:
    def test_nested_spans_on_interleaved_ranks_keep_their_parents(self):
        """Two ranks each hold an outer and an inner span open across a
        receive that parks them, so the scheduler interleaves the four
        spans on one thread.  Each inner span must be the child of its own
        rank's outer span, stamped by its own rank's clock."""

        async def prog(comm):
            other = 1 - comm.rank
            with tracer.span("outer", rank=comm.rank):
                comm.advance(0.5 + comm.rank)
                with tracer.span("inner", rank=comm.rank):
                    # both ranks park here before either can send
                    if comm.rank == 0:
                        got = await comm.recv(other)
                        comm.send("pong", other)
                    else:
                        comm.send("ping", other)
                        got = await comm.recv(other)
                    comm.advance(0.25)
            return got

        with tracing() as (tracer, _):
            assert run_spmd(prog, 2, clock=ClockModel(alpha=0.125)) == ["ping", "pong"]
        spans = {(s.name, s.tags["rank"]): s for s in tracer.spans
                 if s.name in ("outer", "inner", "spmd.rank")}
        for rank in (0, 1):
            root, outer, inner = (spans[(n, rank)] for n in ("spmd.rank", "outer", "inner"))
            assert outer.parent_id == root.span_id
            assert inner.parent_id == outer.span_id
            assert root.parent_id is None
            assert inner.thread == outer.thread == root.thread
        assert spans[("outer", 0)].thread != spans[("outer", 1)].thread
        # rank 1 sends at 1.5 -> rank 0 resumes at 1.625, answers, works to
        # 1.875 -> rank 1 resumes at 1.75 and works to 2.0
        assert (spans[("inner", 0)].start, spans[("inner", 0)].end) == (0.5, 1.875)
        assert (spans[("inner", 1)].start, spans[("inner", 1)].end) == (1.5, 2.0)
        assert spans[("outer", 1)].end == 2.0

    def test_driver_spans_keep_the_wall_clock(self):
        """Only spans opened inside a rank program are in modeled seconds."""
        async def prog(comm):
            with tracer.span("inside", rank=comm.rank):
                comm.advance(3.0)

        with tracing() as (tracer, _):
            with tracer.span("driver"):
                run_spmd(prog, 1)
            after = tracer.event("after")
        driver = tracer.by_name("driver")[0]
        inside = tracer.by_name("inside")[0]
        assert (inside.start, inside.end) == (0.0, 3.0)
        assert driver.duration < 3.0  # wall time of a trivial run
        assert after.parent_id is None and after.thread == driver.thread
