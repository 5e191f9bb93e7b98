"""Unit tests for nonblocking receives (``irecv`` + ``Request.wait``),
buffered sends and the modeled link."""

from __future__ import annotations

import numpy as np
import p2p_collectives as coll
import pytest
from spmd_engine import run_spmd

from repro.errors import CommError
from repro.mpisim import ClockModel


class TestNonblocking:
    def test_irecv_wait(self):
        async def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(3.0), 1, tag=4)
                return None
            req = comm.irecv(0, tag=4)
            return (await req.wait()).tolist()

        assert run_spmd(prog, 2)[1] == [0.0, 1.0, 2.0]

    def test_wait_completes_an_in_flight_message_at_its_arrival(self):
        async def prog(comm):
            if comm.rank == 0:
                comm.send("x", 1)
                return None
            req = comm.irecv(0)
            await req.wait()
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

    def test_irecv_pairwise_exchange(self):
        """Post every receive, send to everyone, then wait on each: the
        order the point-to-point halo exchange uses."""

        async def prog(comm):
            reqs = [
                comm.irecv(src) for src in range(comm.size) if src != comm.rank
            ]
            for dst in range(comm.size):
                if dst != comm.rank:
                    comm.send(comm.rank * 10, dst)
            return sorted([await req.wait() for req in reqs])

        results = run_spmd(prog, 4)
        for r, got in enumerate(results):
            assert got == sorted(10 * s for s in range(4) if s != r)

    def test_irecv_bad_peer(self):
        async def prog(comm):
            comm.irecv(99)

        with pytest.raises(CommError):
            run_spmd(prog, 2)



class TestSendrecv:
    """A buffered send then a receive: rings of them cannot deadlock."""

    def test_two_rank_ring_does_not_deadlock(self):
        """Both ranks send first, then receive: a blocking-send
        implementation would deadlock here."""

        async def prog(comm):
            other = 1 - comm.rank
            got = await coll.sendrecv(
                comm, np.full(4, float(comm.rank)), dest=other, source=other
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
            return await coll.sendrecv(comm, comm.rank, dest=right, source=left)

        assert run_spmd(prog, 5) == [4, 0, 1, 2, 3]


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
