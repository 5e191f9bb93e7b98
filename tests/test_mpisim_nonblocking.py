"""Unit tests for nonblocking point-to-point operations (isend/irecv)."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import drive

from repro.errors import CommError
from repro.mpisim import ClockModel, Request, run_spmd, waitall, waitany


class TestNonblocking:
    def test_isend_completes_immediately(self):
        async def prog(comm):
            if comm.rank == 0:
                req = comm.isend(5, 1)
                done, _ = await req.test()
                assert done
                assert await req.wait() is None
                return True
            return await comm.recv(0)

        assert run_spmd(prog, 2) == [True, 5]

    def test_irecv_wait(self):
        async def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(3.0), 1, tag=4)
                return None
            req = comm.irecv(0, tag=4)
            return (await req.wait()).tolist()

        assert run_spmd(prog, 2)[1] == [0.0, 1.0, 2.0]

    def test_irecv_test_polls(self):
        """A spin loop on ``test()`` terminates: an incomplete test puts
        the poller behind every other runnable rank, so the sender runs."""
        polls = []

        async def prog(comm):
            if comm.rank == 0:
                got = []
                req = comm.irecv(1)
                while True:
                    done, value = await req.test()
                    polls.append(done)
                    if done:
                        got.append(value)
                        break
                return got
            comm.send("payload", 0)
            return None

        assert run_spmd(prog, 2)[0] == ["payload"]
        assert polls == [False, True]  # one yield was enough, deterministically

    def test_polling_with_no_runnable_peer_is_a_deadlock(self):
        async def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(1)
                while not (await req.test())[0]:
                    pass
            else:
                await comm.recv(0)  # never sends: nothing can complete the poll

        with pytest.raises(CommError, match="deadlock.*rank 0 polls"):
            run_spmd(prog, 2)

    def test_test_completes_an_in_flight_message_at_its_arrival(self):
        async def prog(comm):
            if comm.rank == 0:
                comm.send("x", 1)
                return None
            req = comm.irecv(0)
            while not (await req.test())[0]:
                pass
            return comm.now()

        assert run_spmd(prog, 2, clock=ClockModel(alpha=0.25))[1] == 0.25

    def test_wait_is_idempotent(self):
        async def prog(comm):
            if comm.rank == 0:
                comm.send(7, 1)
                return None
            req = comm.irecv(0)
            return (await req.wait(), await req.wait())  # second wait returns cached value

        assert run_spmd(prog, 2)[1] == (7, 7)

    def test_waitall_pairwise_exchange(self):
        async def prog(comm):
            for dst in range(comm.size):
                if dst != comm.rank:
                    comm.isend(comm.rank * 10, dst)
            reqs = [
                comm.irecv(src) for src in range(comm.size) if src != comm.rank
            ]
            return sorted(await waitall(reqs))

        results = run_spmd(prog, 4)
        for r, got in enumerate(results):
            assert got == sorted(10 * s for s in range(4) if s != r)

    def test_irecv_bad_peer(self):
        async def prog(comm):
            comm.irecv(99)

        with pytest.raises(CommError):
            run_spmd(prog, 2)

    def test_standalone_completed_request(self):
        req = Request(completed=True, value=42)
        assert drive(req.test()) == (True, 42)
        assert drive(req.wait()) == 42


class TestWaitany:
    def test_returns_each_completion_once(self):
        async def prog(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(src) for src in (1, 2, 3)]
                got = []
                while reqs:
                    idx, value = await waitany(reqs)
                    got.append(value)
                    reqs.pop(idx)
                return sorted(got)
            comm.advance(0.005 * comm.rank)  # stagger arrivals
            comm.send(comm.rank * 11, 0)
            return None

        assert run_spmd(prog, 4)[0] == [11, 22, 33]

    def test_empty_list_raises(self):
        with pytest.raises(CommError, match="at least one"):
            drive(waitany([]))

    def test_timeout_raises(self):
        """The timeout is modeled time: with rank 1 blocked on rank 0,
        nothing is runnable, so the earliest deadline expires — exactly."""

        async def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(1)
                with pytest.raises(CommError, match="timed out"):
                    await waitany([req], timeout=0.05)
                comm.send("unblock", 1)
                return comm.now()
            await comm.recv(0)
            return comm.now()

        assert run_spmd(prog, 2) == [0.05, 0.05]


class TestSendrecv:
    def test_two_rank_ring_does_not_deadlock(self):
        """Regression: both ranks call sendrecv simultaneously.  A
        blocking-send implementation would deadlock here; the isend-based
        one must exchange the payloads."""

        async def prog(comm):
            other = 1 - comm.rank
            got = await comm.sendrecv(
                np.full(4, float(comm.rank)), dest=other, source=other
            )
            return got.tolist()

        out = run_spmd(prog, 2)
        assert out[0] == [1.0] * 4
        assert out[1] == [0.0] * 4

    def test_ring_shifts_each_engine(self):
        """(There is one engine now; the ring is the point.)"""
        async def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return await comm.sendrecv(comm.rank, dest=right, source=left)

        assert run_spmd(prog, 5) == [4, 0, 1, 2, 3]

    def test_self_exchange_is_identity(self):
        async def prog(comm):
            return await comm.sendrecv("mine", dest=comm.rank, source=comm.rank)

        assert run_spmd(prog, 2) == ["mine", "mine"]


class TestLatency:
    """Link latency is modeled, so these are equalities, not bands."""

    @staticmethod
    async def prog(comm):
        if comm.rank == 0:
            comm.send(np.zeros(100), 1)
            return comm.now()
        await comm.recv(0)
        return comm.now()

    def test_messages_arrive_after_the_modeled_delay(self):
        assert run_spmd(self.prog, 2, clock=ClockModel(alpha=0.05)) == [0.0, 0.05]

    def test_bandwidth_term_scales_with_payload_bytes(self):
        out = run_spmd(self.prog, 2, clock=ClockModel(alpha=0.05, beta=1e-3))
        assert out == [0.0, 0.05 + 1e-3 * 800]

    def test_zero_latency_is_prompt(self):
        assert run_spmd(self.prog, 2) == [0.0, 0.0]

    def test_late_receiver_does_not_wait(self):
        """A completed receive sets the clock to max(own, arrival)."""

        async def prog(comm):
            if comm.rank == 0:
                comm.send("early", 1)
                return comm.now()
            comm.advance(1.0)  # busy past the arrival
            await comm.recv(0)
            return comm.now()

        assert run_spmd(prog, 2, clock=ClockModel(alpha=0.05)) == [0.0, 1.0]

    def test_negative_or_nan_rates_rejected(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(CommError, match="ClockModel"):
                ClockModel(alpha=bad)
