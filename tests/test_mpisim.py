"""Unit tests for the simulated MPI runtime: engine, allreduce, tracker.

The textbook collectives beyond ``allreduce`` are test workloads here
(:mod:`p2p_collectives`, rank programs over ``send`` / ``recv``): they pin
the engine's point-to-point matching on trees, rings and pairwise
exchanges."""

from __future__ import annotations

import gc
import operator
import threading
import time
import weakref
from contextlib import nullcontext

import numpy as np
import p2p_collectives as coll
import pytest
from conftest import ring_halo
from rank_programs import halo_exchange_finish, halo_exchange_start
from spmd_engine import ANY_TAG, run_spmd

from repro.dist import DistMatrix, DistVector, RowPartition, spmd_halo_update
from repro.errors import CommError
from repro.matgen import poisson2d
from repro.mpisim import ClockModel, CommTracker, payload_nbytes
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

    @pytest.mark.parametrize("call", ["send", "recv", "irecv"])
    @pytest.mark.parametrize("peer", [1.0, "1", None])
    def test_a_peer_that_is_not_an_integer_is_rejected(self, call, peer):
        """A float peer once passed the range check and died as a
        ``TypeError`` inside the scheduler."""

        async def prog(comm):
            if comm.rank == 0:
                if call == "send":
                    comm.send(1, peer)
                elif call == "recv":
                    await comm.recv(peer)
                else:
                    comm.irecv(peer)

        with pytest.raises(CommError, match="rank 0 failed") as err:
            run_spmd(prog, 2)
        assert isinstance(err.value.__cause__, CommError)
        assert f"peer rank {peer!r} is not an integer in [0, 2)" in str(err.value)

    def test_an_integer_like_peer_is_accepted(self):
        async def prog(comm):
            if comm.rank == 0:
                comm.send("x", np.int64(1))
                return None
            return await comm.recv(np.int64(0))

        assert run_spmd(prog, 2) == [None, "x"]

    @pytest.mark.parametrize("seconds", [float("inf"), float("nan"), -1.0])
    def test_advance_rejects_what_is_not_a_finite_duration(self, seconds):
        """An infinite charge was once accepted, and every later clock read
        ``inf``."""

        async def prog(comm):
            comm.advance(seconds)

        with pytest.raises(CommError, match="cannot advance the clock"):
            run_spmd(prog, 1)

    def test_zero_size_rejected(self):
        with pytest.raises(CommError):
            run_spmd(lambda comm: None, 0)


class TestCollectives:
    @pytest.mark.parametrize("size", SIZES)
    def test_allreduce_sum_scalar(self, size):
        results = run_spmd(lambda c: c.allreduce(float(c.rank + 1)), size)
        assert results == [size * (size + 1) / 2] * size

    @pytest.mark.parametrize("size", SIZES)
    def test_allreduce_array(self, size):
        async def prog(comm):
            return await comm.allreduce(np.full(3, float(comm.rank)))

        for r in run_spmd(prog, size):
            assert np.allclose(r, sum(range(size)))

    @pytest.mark.parametrize("size", SIZES)
    def test_allreduce_max_min(self, size):
        """The allreduce only sums: a rank program gets the max and the min
        from the sum of one-hot rows (adding zeros is exact)."""

        async def prog(comm):
            row = np.zeros(comm.size)
            row[comm.rank] = float((comm.rank * 7) % 5)
            everyone = await comm.allreduce(row)
            return everyone.max(), everyone.min()

        values = [float((r * 7) % 5) for r in range(size)]
        assert run_spmd(prog, size) == [(max(values), min(values))] * size

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("root", [0, -1])
    def test_bcast(self, size, root):
        root = root % size

        async def prog(comm):
            return await coll.bcast(comm, {"v": 7} if comm.rank == root else None, root=root)

        assert run_spmd(prog, size) == [{"v": 7}] * size

    @pytest.mark.parametrize("size", SIZES)
    def test_reduce_only_root_gets_result(self, size):
        root = size - 1

        async def prog(comm):
            return await coll.reduce(comm, comm.rank + 1, operator.add, root=root)

        results = run_spmd(prog, size)
        assert results[root] == size * (size + 1) // 2
        assert all(r is None for i, r in enumerate(results) if i != root)

    @pytest.mark.parametrize("size", SIZES)
    def test_gather_scatter(self, size):
        async def prog(comm):
            gathered = await coll.gather(comm, comm.rank**2, root=0)
            values = [v * 10 for v in gathered] if comm.rank == 0 else None
            return await coll.scatter(comm, values, root=0)

        assert run_spmd(prog, size) == [10 * r * r for r in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    def test_allgather(self, size):
        results = run_spmd(lambda c: coll.allgather(c, c.rank), size)
        assert results == [list(range(size))] * size

    @pytest.mark.parametrize("size", SIZES)
    def test_alltoall(self, size):
        async def prog(comm):
            return await coll.alltoall(comm, [comm.rank * 100 + j for j in range(size)])

        results = run_spmd(prog, size)
        for r, row in enumerate(results):
            assert row == [j * 100 + r for j in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    def test_barrier_completes(self, size):
        async def prog(comm):
            await coll.barrier(comm)
            return True

        assert all(run_spmd(prog, size))

    def test_float_allreduce_deterministic_across_ranks(self):
        async def prog(comm):
            rng = np.random.default_rng(comm.rank)
            return await comm.allreduce(float(rng.standard_normal()))

        results = run_spmd(prog, 7)
        assert all(r == results[0] for r in results)


class TestAllreduceFailures:
    """A misused allreduce fails typed and names the ranks involved."""

    @pytest.mark.parametrize("payload", [
        3, np.float64(1.0), [1.0], np.array(1.0), np.array(["a"]), np.ones(2, bool),
    ], ids=["int", "float64", "list", "0-d", "str-array", "bool-array"])
    def test_a_payload_it_cannot_sum(self, payload):
        async def prog(comm):
            return await comm.allreduce(payload if comm.rank == 2 else 1.0)

        with pytest.raises(CommError, match="rank 2 failed") as err:
            run_spmd(prog, 4)
        assert "allreduce: rank 2 passed " in str(err.value)
        assert "it sums a Python float or a numeric array" in str(err.value)

    @pytest.mark.parametrize("faulted", [False, True], ids=["native", "point-to-point"])
    def test_a_payload_it_cannot_sum_fails_on_either_path(self, faulted):
        """Plain and faulted runs take the one point-to-point allreduce,
        through the unobserved and the observed receive."""

        async def prog(comm):
            return await comm.allreduce(comm.rank if comm.rank else 0.0)

        with fault_injection(FaultPlan()) if faulted else nullcontext():
            with pytest.raises(CommError, match="allreduce: rank 1 passed int 1"):
                run_spmd(prog, 3)

    def test_payload_shapes_that_cannot_combine(self):
        """Ranks 0 and 1 meet in the first round: rank 1 raises on rank 0's
        partial, naming both ranks and both operands."""

        async def prog(comm):
            return await comm.allreduce(np.zeros(3 if comm.rank else 2))

        with pytest.raises(
            CommError,
            match=r"rank 1 failed: .*rank 0 passed a float64 array of shape \(2,\) but "
                  r"rank 1 passed a float64 array of shape \(3,\)",
        ):
            run_spmd(prog, 4)

    def test_a_float_and_an_array_cannot_combine(self):
        """Ranks 2 and 3 meet in the first round; rank 3 receives first."""

        async def prog(comm):
            return await comm.allreduce(np.zeros(1) if comm.rank == 3 else 0.0)

        with pytest.raises(CommError, match=r"rank 3 failed: .*rank 2 passed a Python float "
                                            r"but rank 3 passed a float64 array of shape "
                                            r"\(1,\)"):
            run_spmd(prog, 4)

    @pytest.mark.parametrize("operands", [
        (np.zeros(1), 0.0), (np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros(2, np.int64)),
    ], ids=["array-float", "shapes", "dtypes"])
    def test_operands_that_differ_fail_typed_under_a_fault_plan(self, operands):
        """Under an installed (empty) fault plan a float plus a shape-(1,)
        array once broadcast silently, and unequal shapes raised an untyped
        ``ValueError``."""
        first, rest = operands

        async def prog(comm):
            return await comm.allreduce(first if comm.rank == 0 else rest)

        with fault_injection(FaultPlan()):
            with pytest.raises(CommError, match=r"rank 1 failed: .*rank 0 passed "
                                                r"(.+) but rank 1 passed ") as err:
                run_spmd(prog, 4)
        assert isinstance(err.value.__cause__, CommError)

    def test_deadlock_when_a_rank_skips_it(self):
        """Rank 2 never sends its round messages: each rank blocked on it,
        directly or through rank 3, is named with the receive it waits in."""

        async def prog(comm):
            if comm.rank == 2:
                return None
            return await comm.allreduce(1.0)

        with pytest.raises(CommError, match="deadlock") as err:
            run_spmd(prog, 4)
        message = str(err.value)
        for rank, source, tag in ((0, 2, 1_000_006), (1, 3, 1_000_006), (3, 2, 1_000_005)):
            assert f"rank {rank} waits on recv(source={source}, tag={tag})" in message
        assert "rank 2" not in message

    def test_deadlock_when_a_rank_calls_another_collective(self):
        """Rank 1 enters the halo exchange while ranks 0 and 2 wait in the
        allreduce: each blocked receive is named, of either collective."""
        ring = ring_halo((-1,), ranks=3)

        async def prog(comm):
            if comm.rank == 1:
                pending = halo_exchange_start(comm, ring, np.ones(4))
                return await halo_exchange_finish(comm, ring, pending, np.zeros(1))
            return await comm.allreduce(1.0)

        with pytest.raises(CommError, match="deadlock") as err:
            run_spmd(prog, 3)
        message = str(err.value)
        assert "rank 0 waits on recv(source=1, tag=1000004)" in message  # the fold
        assert "rank 1 waits on recv(source=0, tag=7000)" in message  # the halo
        assert "rank 2 waits on recv(source=0, tag=1000005)" in message  # a doubling


class TestNativeHalo:
    """The halo exchange over point-to-point messages: its failures are
    typed, and nothing of a run outlives the run."""

    def test_deadlock_names_the_sources_that_have_not_posted(self):
        ring = ring_halo((-1, 1), ranks=4)

        async def prog(comm):
            if comm.rank == 1:
                return None  # never posts
            halo = np.zeros(2)
            pending = halo_exchange_start(comm, ring, np.ones(4))
            return await halo_exchange_finish(comm, ring, pending, halo)

        with pytest.raises(CommError, match="deadlock") as err:
            run_spmd(prog, 4)
        message = str(err.value)
        for rank in (0, 2):
            assert f"rank {rank} waits on recv(source=1, tag=7000)" in message
        assert "rank 3" not in message  # its sources 0 and 2 posted

    def test_the_engine_keeps_nothing_of_the_matrix(self):
        """A run holds the matrix only while it lasts: with the collector
        off, dropping the caller's references frees it and its schedule."""
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
    """The one-rank communicator is a one-rank run: SPMD code runs with
    ``size == 1`` without special-casing."""

    def test_collectives_are_local(self):
        async def prog(comm):
            await coll.barrier(comm)
            return (await comm.allreduce(5.0), await coll.bcast(comm, "x"),
                    await coll.allgather(comm, 3), await coll.gather(comm, 2),
                    await comm.allreduce(np.arange(2.0)))

        total, token, everyone, gathered, array = run_spmd(prog, 1)[0]
        assert (total, token, everyone, gathered) == (5.0, "x", [3], [2])
        assert array.tolist() == [0.0, 1.0]

    def test_clock_accumulates_what_is_charged(self):
        async def prog(comm):
            comm.advance(comm.clock.kernel_seconds(flops=1000, nbytes=4000))
            return comm.now()

        clock = ClockModel(flop=1e-9, byte=1e-10)
        assert run_spmd(prog, 1, clock=clock) == [max(1000 * 1e-9, 4000 * 1e-10)]

    def test_p2p_rejected(self):
        async def send(comm):
            comm.send(1, 0)

        async def recv(comm):
            await comm.recv(0)

        with pytest.raises(CommError, match="send to self"):
            run_spmd(send, 1)
        with pytest.raises(CommError, match="recv from self"):
            run_spmd(recv, 1)


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
        results = run_spmd(lambda c: coll.scan(c, c.rank + 1, operator.add), size)
        assert results == [sum(range(1, r + 2)) for r in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    def test_reduce_scatter(self, size):
        async def prog(comm):
            return await coll.reduce_scatter(
                comm, [comm.rank * 100 + j for j in range(comm.size)], operator.add
            )

        results = run_spmd(prog, size)
        for r, got in enumerate(results):
            assert got == sum(s * 100 + r for s in range(size))

    def test_reduce_scatter_needs_full_list(self):
        async def prog(comm):
            await coll.reduce_scatter(comm, [1], operator.add)

        with pytest.raises(CommError, match="list index out of range"):
            run_spmd(prog, 3)

    def test_scan_max(self):
        values = [3, 1, 4, 1, 5]

        async def prog(comm):
            return await coll.scan(comm, values[comm.rank], max)

        assert run_spmd(prog, 5) == [3, 3, 4, 4, 5]

    def test_selfcomm_scan(self):
        async def prog(comm):
            return (await coll.scan(comm, 7, operator.add),
                    await coll.reduce_scatter(comm, [9], operator.add))

        assert run_spmd(prog, 1) == [(7, 9)]
