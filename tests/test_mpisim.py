"""Unit tests for the simulated MPI runtime: engine, collectives, tracker."""

from __future__ import annotations

import gc
import threading
import time
import weakref
from contextlib import nullcontext

import numpy as np
import pytest
from conftest import drive, ring_halo

from repro.dist import DistMatrix, DistVector, RowPartition, spmd_halo_update
from repro.dist.spmd import _halo_exchange_finish, _halo_exchange_start
from repro.errors import CommError
from repro.instrument import tracing
from repro.matgen import poisson2d
from repro.mpisim import (
    ANY_TAG,
    SUM,
    ClockModel,
    CommTracker,
    ReduceOp,
    SelfComm,
    payload_nbytes,
    run_spmd,
)
from repro.mpisim.comm import MAX, MIN
from repro.observe.stream import TelemetryConfig
from repro.resilience import FaultPlan, fault_injection

SIZES = [1, 2, 3, 4, 5, 7, 8]


class TestEngine:
    def test_returns_per_rank_results(self):
        async def prog(comm):
            return comm.rank * 10

        assert run_spmd(prog, 4) == [0, 10, 20, 30]

    def test_plain_function_is_rejected(self):
        """Rank programs are coroutines; there is no plain-function path."""
        with pytest.raises(CommError, match="async def"):
            run_spmd(lambda comm: comm.rank, 2)

    def test_exception_propagates_with_rank(self):
        async def prog(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(CommError, match="rank 2"):
            run_spmd(prog, 4)

    def test_point_to_point_order(self):
        async def prog(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            if comm.rank == 1:
                # receive out of order by tag
                b = await comm.recv(0, tag=2)
                a = await comm.recv(0, tag=1)
                return (a, b)
            return None

        assert run_spmd(prog, 2)[1] == ("a", "b")

    def test_any_tag(self):
        async def prog(comm):
            if comm.rank == 0:
                comm.send(42, 1, tag=7)
                return None
            return await comm.recv(0, ANY_TAG)

        assert run_spmd(prog, 2)[1] == 42

    def test_send_copies_numpy_payload(self):
        async def prog(comm):
            if comm.rank == 0:
                buf = np.ones(4)
                comm.send(buf, 1)
                buf[:] = -1.0  # mutation after send must not corrupt
                return None
            return await comm.recv(0)

        assert np.allclose(run_spmd(prog, 2)[1], 1.0)

    def test_recv_timeout_reports_deadlock(self):
        """A receive nobody serves gives up at exactly its modeled deadline."""
        clocks = {}

        async def prog(comm):
            if comm.rank == 0:
                try:
                    return await comm.recv(1, timeout=0.2)  # nobody sends
                finally:
                    clocks[0] = comm.now()
            return None

        with pytest.raises(CommError, match="timed out"):
            run_spmd(prog, 2)
        assert clocks[0] == 0.2  # the receive gave up at exactly its deadline

    def test_message_landing_after_the_deadline_times_out(self):
        """A 0.05 s link cannot beat a 0.01 s timeout, whatever the order
        the two ranks happen to run in."""

        async def prog(comm):
            if comm.rank == 0:
                comm.send("late", 1)
                return None
            with pytest.raises(CommError, match="timed out"):
                await comm.recv(0, timeout=0.01)
            gave_up = comm.now()
            return gave_up, await comm.recv(0), comm.now()

        out = run_spmd(prog, 2, clock=ClockModel(alpha=0.05))
        assert out[1] == (0.01, "late", 0.05)

    def test_deadlock_is_immediate_and_names_the_waits(self):
        async def prog(comm):
            return await comm.recv(1 - comm.rank, tag=3)  # both receive first

        t0 = time.perf_counter()
        with pytest.raises(CommError, match="deadlock") as err:
            run_spmd(prog, 2)
        assert time.perf_counter() - t0 < 1.0
        assert "rank 0 waits on recv(source=1, tag=3)" in str(err.value)
        assert "rank 1 waits on recv(source=0, tag=3)" in str(err.value)

    def test_failing_rank_stops_its_waiting_peers_at_once(self):
        unwound = []

        async def prog(comm):
            if comm.rank == 15:
                raise ValueError("boom")
            try:
                return await comm.recv(15)  # 15 peers wait on the failing rank
            finally:
                unwound.append(comm.rank)

        t0 = time.perf_counter()
        with pytest.raises(CommError, match="rank 15 failed") as err:
            run_spmd(prog, 16)
        assert time.perf_counter() - t0 < 1.0
        assert isinstance(err.value.__cause__, ValueError)
        # every parked coroutine was closed: its finally unwound
        assert unwound == list(range(15))

    def test_self_messaging_rejected(self):
        async def prog(comm):
            comm.send(1, comm.rank)

        with pytest.raises(CommError):
            run_spmd(prog, 2)

    def test_bad_peer_rejected(self):
        async def prog(comm):
            comm.send(1, 99)

        with pytest.raises(CommError):
            run_spmd(prog, 2)

    def test_zero_size_rejected(self):
        with pytest.raises(CommError):
            run_spmd(lambda comm: None, 0)


class TestCollectives:
    @pytest.mark.parametrize("size", SIZES)
    def test_allreduce_sum_scalar(self, size):
        results = run_spmd(lambda c: c.allreduce(c.rank + 1, SUM), size)
        assert results == [size * (size + 1) // 2] * size

    @pytest.mark.parametrize("size", SIZES)
    def test_allreduce_array(self, size):
        async def prog(comm):
            return await comm.allreduce(np.full(3, float(comm.rank)), SUM)

        for r in run_spmd(prog, size):
            assert np.allclose(r, sum(range(size)))

    @pytest.mark.parametrize("size", SIZES)
    def test_allreduce_max_min(self, size):
        assert run_spmd(lambda c: c.allreduce(c.rank, MAX), size) == [size - 1] * size
        assert run_spmd(lambda c: c.allreduce(c.rank, MIN), size) == [0] * size

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("root", [0, -1])
    def test_bcast(self, size, root):
        root = root % size

        async def prog(comm):
            return await comm.bcast({"v": 7} if comm.rank == root else None, root=root)

        assert run_spmd(prog, size) == [{"v": 7}] * size

    @pytest.mark.parametrize("size", SIZES)
    def test_reduce_only_root_gets_result(self, size):
        root = size - 1

        async def prog(comm):
            return await comm.reduce(comm.rank + 1, SUM, root=root)

        results = run_spmd(prog, size)
        assert results[root] == size * (size + 1) // 2
        assert all(r is None for i, r in enumerate(results) if i != root)

    @pytest.mark.parametrize("size", SIZES)
    def test_gather_scatter(self, size):
        async def prog(comm):
            gathered = await comm.gather(comm.rank**2, root=0)
            values = [v * 10 for v in gathered] if comm.rank == 0 else None
            return await comm.scatter(values, root=0)

        assert run_spmd(prog, size) == [10 * r * r for r in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    def test_allgather(self, size):
        results = run_spmd(lambda c: c.allgather(c.rank), size)
        assert results == [list(range(size))] * size

    @pytest.mark.parametrize("size", SIZES)
    def test_alltoall(self, size):
        async def prog(comm):
            return await comm.alltoall([comm.rank * 100 + j for j in range(size)])

        results = run_spmd(prog, size)
        for r, row in enumerate(results):
            assert row == [j * 100 + r for j in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    def test_barrier_completes(self, size):
        async def prog(comm):
            await comm.barrier()
            return True

        assert all(run_spmd(prog, size))

    def test_float_allreduce_deterministic_across_ranks(self):
        async def prog(comm):
            rng = np.random.default_rng(comm.rank)
            return await comm.allreduce(float(rng.standard_normal()), SUM)

        results = run_spmd(prog, 7)
        assert all(r == results[0] for r in results)

    def test_custom_reduce_op(self):
        concat = ReduceOp("concat", lambda a, b: a + b)
        results = run_spmd(lambda c: c.allreduce([c.rank], concat), 4)
        for r in results:
            assert sorted(r) == [0, 1, 2, 3]


class TestAllreduceFailures:
    """A misused allreduce fails typed and names the ranks involved."""

    def test_ranks_passing_different_operators(self):
        async def prog(comm):
            return await comm.allreduce(float(comm.rank), MAX if comm.rank == 2 else SUM)

        with pytest.raises(CommError, match=r"disagree on the operator.*rank 0.*rank 2"):
            run_spmd(prog, 4)

    def test_payload_shapes_that_cannot_combine(self):
        async def prog(comm):
            return await comm.allreduce(np.zeros(3 if comm.rank else 2), SUM)

        with pytest.raises(
            CommError,
            match=r"rank 0 cannot combine its payload \(2,\) with rank 1's \(3,\)",
        ):
            run_spmd(prog, 4)

    def test_deadlock_when_a_rank_skips_it(self):
        async def prog(comm):
            if comm.rank == 2:
                return None
            return await comm.allreduce(1.0)

        with pytest.raises(CommError, match="deadlock") as err:
            run_spmd(prog, 4)
        for rank in (0, 1, 3):
            assert f"rank {rank} waits in allreduce (3 of 4 ranks arrived)" in str(err.value)

    def test_deadlock_when_a_rank_calls_another_collective(self):
        async def prog(comm):
            if comm.rank == 1:
                return await comm.bcast("x", root=0)
            return await comm.allreduce(1.0)

        with pytest.raises(CommError, match="deadlock") as err:
            run_spmd(prog, 3)
        message = str(err.value)
        assert "rank 0 waits in allreduce (2 of 3 ranks arrived)" in message
        assert "rank 1 waits on recv(source=0" in message


class TestNativeHalo:
    """The engine's split-phase halo exchange: its failures are typed, and
    nothing of a run's plans outlives the run."""

    def test_deadlock_names_the_sources_that_have_not_posted(self):
        ring = ring_halo((-1, 1), ranks=4)

        async def prog(comm):
            if comm.rank == 1:
                return None  # never posts
            halo = np.zeros(2)
            pending = _halo_exchange_start(comm, ring, np.ones(4))
            return await _halo_exchange_finish(comm, ring, pending, halo)

        with pytest.raises(CommError, match="deadlock") as err:
            run_spmd(prog, 4)
        message = str(err.value)
        for rank in (0, 2):
            assert (f"rank {rank} waits in halo_finish for exchange 1 from ranks [1], "
                    "which have not posted it") in message
        assert "rank 3" not in message  # its sources 0 and 2 posted

    @pytest.mark.parametrize("starts", [0, 1])
    def test_a_finish_without_a_start_raises(self, starts):
        ring = ring_halo((-1, 1), ranks=4)

        async def prog(comm):
            plan = comm.halo_plan(ring.schedule)
            for _ in range(starts):
                await comm.halo_finish(comm.halo_start(plan, np.ones(4)), np.zeros(2))
            await comm.halo_finish(plan, np.zeros(2))

        with pytest.raises(CommError, match="halo_finish without a matching halo_start"):
            run_spmd(prog, 4)

    @pytest.mark.parametrize("watch", ["faults", "tracing", "telemetry"])
    def test_faulted_and_watched_runs_exchange_point_to_point(self, watch):
        ring = ring_halo((-1, 1), ranks=4)

        async def prog(comm):
            return comm.halo_plan(ring.schedule)

        assert all(plan is not None for plan in run_spmd(prog, 4))
        telemetry = TelemetryConfig() if watch == "telemetry" else None
        watching = {"faults": lambda: fault_injection(FaultPlan()),
                    "tracing": tracing, "telemetry": nullcontext}[watch]
        with watching():
            assert run_spmd(prog, 4, telemetry=telemetry) == [None] * 4

    def test_the_engine_keeps_nothing_of_the_matrix(self):
        """A plan holds its schedule only while the run lasts: with the
        collector off, dropping the caller's references frees both."""
        mat, part = poisson2d(8), RowPartition.contiguous(64, 4)
        gc.disable()
        try:
            da = DistMatrix.from_global(mat, part)
            spmd_halo_update(da, DistVector.from_global(np.ones(64), part))
            refs = weakref.ref(da), weakref.ref(da.schedule)
            del da
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestSelfComm:
    def test_collectives_are_local(self):
        comm = SelfComm()
        assert drive(comm.allreduce(5, SUM)) == 5
        assert drive(comm.bcast("x")) == "x"
        assert drive(comm.allgather(3)) == [3]
        assert drive(comm.gather(2)) == [2]
        drive(comm.barrier())

    def test_clock_accumulates_what_is_charged(self):
        comm = SelfComm(clock=ClockModel(flop=1e-9, byte=1e-10))
        comm.advance(comm.clock.kernel_seconds(flops=1000, nbytes=4000))
        assert comm.now() == max(1000 * 1e-9, 4000 * 1e-10)

    def test_p2p_rejected(self):
        comm = SelfComm()
        with pytest.raises(CommError):
            comm.send(1, 0)
        with pytest.raises(CommError):
            drive(comm.recv(0))


class TestTracker:
    def test_records_messages(self):
        tracker = CommTracker()

        async def prog(comm):
            if comm.rank == 0:
                comm.send(np.ones(10), 1)
            elif comm.rank == 1:
                await comm.recv(0)

        run_spmd(prog, 2, tracker=tracker)
        assert tracker.p2p_messages[(0, 1)] == 1
        assert tracker.p2p_bytes[(0, 1)] == 80
        assert tracker.total_messages == 1
        assert tracker.edges() == {(0, 1)}

    def test_reset_and_snapshot(self):
        tracker = CommTracker()
        tracker.record_p2p(0, 1, 8)
        tracker.record_collective("allreduce", 16)
        snap = tracker.snapshot()
        assert snap["p2p_messages"] == {(0, 1): 1}
        assert snap["collective_calls"] == {"allreduce": 1}
        tracker.reset()
        assert tracker.total_messages == 0

    def test_same_edges(self):
        a, b = CommTracker(), CommTracker()
        a.record_p2p(0, 1, 8)
        b.record_p2p(0, 1, 800)  # different volume, same edge
        assert a.same_edges(b)
        b.record_p2p(1, 0, 8)
        assert not a.same_edges(b)

    def test_payload_nbytes(self):
        assert payload_nbytes(np.zeros(5)) == 40
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes((1, 2, 3)) == 24
        assert payload_nbytes({"a": 1}) > 0

    def test_payload_nbytes_unpicklable_raises(self):
        # regression: used to silently return 0, undercounting traffic and
        # defeating the byte-for-byte communication-invariance checks
        unpicklable = lambda: None  # noqa: E731 — local lambdas don't pickle
        with pytest.raises(CommError, match="not picklable"):
            payload_nbytes(unpicklable)
        with pytest.raises(CommError):
            payload_nbytes(threading.Lock())


class TestScanReduceScatter:
    @pytest.mark.parametrize("size", SIZES)
    def test_scan_prefix_sums(self, size):
        results = run_spmd(lambda c: c.scan(c.rank + 1, SUM), size)
        assert results == [sum(range(1, r + 2)) for r in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    def test_reduce_scatter(self, size):
        async def prog(comm):
            return await comm.reduce_scatter(
                [comm.rank * 100 + j for j in range(comm.size)], SUM
            )

        results = run_spmd(prog, size)
        for r, got in enumerate(results):
            assert got == sum(s * 100 + r for s in range(size))

    def test_reduce_scatter_needs_full_list(self):
        async def prog(comm):
            await comm.reduce_scatter([1], SUM)

        with pytest.raises(CommError):
            run_spmd(prog, 3)

    def test_scan_max(self):
        values = [3, 1, 4, 1, 5]

        async def prog(comm):
            return await comm.scan(values[comm.rank], MAX)

        assert run_spmd(prog, 5) == [3, 3, 4, 4, 5]

    def test_selfcomm_scan(self):
        from repro.mpisim import SelfComm

        comm = SelfComm()
        assert drive(comm.scan(7, SUM)) == 7
        assert drive(comm.reduce_scatter([9], SUM)) == 9
