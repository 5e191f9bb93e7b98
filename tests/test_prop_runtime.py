"""Property-based tests for the runtime substrates: collectives, partitions,
halo exchange, cache simulation."""

from __future__ import annotations

import operator
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import p2p_collectives as coll
from hypothesis import example, given, settings
from hypothesis import strategies as st
from rank_programs import halo_exchange_finish, halo_exchange_start
from spmd_engine import run_spmd

from repro.cachesim import CacheConfig, simulate_misses
from repro.dist import DistMatrix, DistVector, HaloSchedule, RowPartition
from repro.dist.spmd import _Ledger, _Product, book_bulk
from repro.instrument import tracing
from repro.matgen import poisson2d
from repro.mpisim import ClockModel, CommTracker, payload_nbytes
from repro.mpisim.collectives import reduce_rounds
from repro.partition import graph_from_matrix, partition_matrix
from repro.perfmodel import SKYLAKE
from repro.sparse import CSRMatrix

SETTINGS = settings(max_examples=15, deadline=None)


class TestCollectiveProperties:
    @SETTINGS
    @given(st.integers(1, 9), st.integers(0, 2**31 - 1))
    def test_allreduce_equals_sequential_sum(self, size, seed):
        rng = np.random.default_rng(seed)
        # integers in floats: every partial sum is exact, in any order
        values = rng.integers(-1000, 1000, size).astype(float).tolist()

        async def prog(comm):
            return await comm.allreduce(values[comm.rank])

        assert run_spmd(prog, size) == [sum(values)] * size

    @SETTINGS
    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_minmax_consistency(self, size, seed):
        """Max and min through the summing allreduce of one-hot rows."""
        values = np.random.default_rng(seed).standard_normal(size)

        async def prog(comm):
            row = np.zeros(comm.size)
            row[comm.rank] = values[comm.rank]
            everyone = await comm.allreduce(row)
            return everyone.max(), everyone.min()

        assert run_spmd(prog, size) == [(values.max(), values.min())] * size

    @SETTINGS
    @given(st.integers(1, 8), st.integers(0, 7))
    def test_bcast_from_any_root(self, size, root):
        root = root % size

        async def prog(comm):
            return await coll.bcast(comm, ("payload", root) if comm.rank == root else None, root)

        assert run_spmd(prog, size) == [("payload", root)] * size


def _canonical(x):
    """A form equal only for bitwise-equal payloads of the same type."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    return (type(x).__name__, x.hex())


async def _two_allreduces(comm, values, skews):
    """Two allreduces from skewed clocks; the second one's operands are
    the first's rotated by one rank."""
    comm.advance(skews[comm.rank])
    first = await comm.allreduce(values[comm.rank])
    comm.advance(skews[-1 - comm.rank])
    second = await comm.allreduce(values[(comm.rank + 1) % comm.size])
    return _canonical(first), _canonical(second), comm.now()


class TestNativeAllreduceOracle:
    """The clocked executor's allreduce — every round for all ranks at once
    (:func:`reduce_rounds`), its traffic booked in bulk (:func:`book_bulk`)
    — against the point-to-point algorithm every engine run executes:
    results, per-rank clocks and tracker snapshot, whether the tracer
    watches the messages or not."""

    @staticmethod
    def point_to_point(size, values, skews, clock, observe):
        tracker = CommTracker()
        with tracing() if observe == "traced" else nullcontext():
            out = run_spmd(_two_allreduces, size, values, skews,
                           tracker=tracker, clock=clock)
        return out, tracker.snapshot()

    @staticmethod
    def native(size, values, skews, clock):
        """``_two_allreduces`` for all ranks at once."""
        nbytes = payload_nbytes(values[0])
        clocks, partials = np.array(skews), np.array(values)
        reduce_rounds(clocks, partials, clock.alpha, clock.beta, nbytes)
        first = list(partials) if partials.ndim > 1 else partials.tolist()
        clocks += skews[::-1]
        partials = np.roll(np.array(values), -1, axis=0)
        reduce_rounds(clocks, partials, clock.alpha, clock.beta, nbytes)
        second = list(partials) if partials.ndim > 1 else partials.tolist()
        tracker = CommTracker()
        book_bulk(tracker, size, 2, 2 * nbytes, ())
        out = [(_canonical(a), _canonical(b), t)
               for a, b, t in zip(first, second, clocks.tolist())]
        return out, tracker.snapshot()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 40),
        st.sampled_from(["scalar", "array"]),
        st.booleans(),
        st.sampled_from([ClockModel(), ClockModel(alpha=2e-6, beta=1e-9)]),
        st.sampled_from(["plain", "traced"]),
        st.integers(0, 2**31 - 1),
    )
    # always run: arrays at a size that folds, and signed zeros
    @example(6, "array", False, ClockModel(alpha=2e-6, beta=1e-9), "plain", 0)
    @example(5, "scalar", True, ClockModel(), "traced", 1)
    def test_native_equals_point_to_point(self, size, kind, zeros, clock, observe, seed):
        rng = np.random.default_rng(seed)
        draws = rng.standard_normal((size, 3))
        if zeros:  # a sum of signed zeros is -0.0 only if every operand is
            draws = np.where(rng.random((size, 3)) < 0.5, -0.0, 0.0)
        values = [float(v) for v in draws[:, 0]] if kind == "scalar" else list(draws)
        skews = (rng.integers(0, 5, size) * 1e-6).tolist()
        native = self.native(size, values, skews, clock)
        oracle = self.point_to_point(size, values, skews, clock, observe)
        assert native == oracle


async def _three_exchanges(comm, mat, values, skews, work):
    """Two exchanges outstanding at once, local compute between their
    starts and finishes, then a third; returns each halo's bytes and the
    clock after each finish."""
    p = comm.rank
    halos = [np.full(mat.schedule.ext_cols[p].size, np.nan) for _ in range(3)]
    comm.advance(skews[p])
    first = halo_exchange_start(comm, mat, values[p])
    second = halo_exchange_start(comm, mat, 2.0 * values[p])
    comm.advance(work[p])
    await halo_exchange_finish(comm, mat, first, halos[0])
    clocks = [comm.now()]
    await halo_exchange_finish(comm, mat, second, halos[1])
    clocks.append(comm.now())
    comm.advance(work[-1 - p])
    await halo_exchange_finish(
        comm, mat, halo_exchange_start(comm, mat, 3.0 * values[p]), halos[2]
    )
    clocks.append(comm.now())
    return [h.tobytes() for h in halos], clocks


class TestNativeHaloOracle:
    """The point-to-point halo exchange every engine run executes, on
    random schedules — ragged and empty edges, ranks with no neighbours —
    against the BSP ``schedule.update`` (the halos), and against the
    clocked executor's halo arithmetic: its clocks (:class:`_Product`) and
    its bulk booking (:func:`book_bulk`)."""

    @staticmethod
    def ledger(mat, skews, work, clock):
        """``_three_exchanges``'s clocks for all ranks at once."""
        ledger = _Ledger(mat.partition, clock)
        product = _Product(ledger, mat, overlap=False)
        vector, clocks = np.zeros(mat.shape[0]), ledger.clocks
        clocks += skews

        def start():
            clocks[:] += product.pack_s
            return clocks + clock.alpha

        first, second = start(), start()
        clocks += work
        product._finish(first, vector)
        after = [clocks.copy()]
        product._finish(second, vector)
        after.append(clocks.copy())
        clocks += work[::-1]
        product._finish(start(), vector)
        after.append(clocks.copy())
        return np.array(after).T.tolist()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(0, 30),
        st.sampled_from([0.0, 0.05, 0.4]),
        st.sampled_from([ClockModel(), SKYLAKE.clock_model()]),
        st.integers(0, 2**31 - 1),
    )
    def test_native_equals_point_to_point(self, size, extra_rows, density, clock, seed):
        rng = np.random.default_rng(seed)
        n = size + extra_rows
        owner = rng.permutation(
            np.concatenate([np.arange(size), rng.integers(0, size, extra_rows)])
        )
        rows, cols = np.nonzero(rng.random((n, n)) < density)
        mat = DistMatrix.from_global(
            CSRMatrix.from_coo((n, n), rows, cols, np.ones(rows.size)),
            RowPartition(owner, size),
        )
        values = [rng.standard_normal(lm.n_local) for lm in mat.locals]
        skews = rng.integers(0, 5, size) * 1e-6
        work = rng.integers(0, 5, size) * 1e-6
        tracker = CommTracker()
        out = run_spmd(_three_exchanges, size, mat, values, skews.tolist(), work.tolist(),
                       tracker=tracker, clock=clock)
        expected = [mat.schedule.update([k * v for v in values]) for k in (1.0, 2.0, 3.0)]
        assert [halos for halos, _ in out] == [
            [update[p].tobytes() for update in expected] for p in range(size)
        ]
        assert [clocks for _, clocks in out] == self.ledger(mat, skews, work, clock)
        booked = CommTracker()
        book_bulk(booked, size, 0, 0, [(mat.schedule, 3)])
        assert tracker.snapshot() == booked.snapshot()


# A random SPMD program is a tree: leaves are communication steps every rank
# takes part in (or sits out), inner nodes run their children in order,
# possibly repeated.  ``size`` is not known when the tree is drawn, so ranks
# are drawn as large integers and reduced modulo the size at run time.  The
# steps are the runtime's primitives — ``send`` / ``recv``, ``irecv`` +
# ``wait``, the summing ``allreduce``, the halo exchange, ``advance`` — and
# textbook collectives written over them (:mod:`p2p_collectives`).  Values
# are integers reduced modulo ``_MOD`` after every step, so the allreduce's
# float sums are exact in any order.
_MOD = 1 << 20
_RANK = st.integers(0, 10_000)
_LEAF = st.one_of(
    st.tuples(st.just("p2p"), _RANK, _RANK, st.integers(-99, 99)),
    st.tuples(st.just("ring"), st.integers(1, 8)),
    st.tuples(st.just("irecv_ring"), st.integers(1, 8)),
    st.tuples(st.just("allreduce")),
    st.tuples(st.just("halo"), st.integers(1, 8)),
    st.tuples(st.just("bcast"), _RANK),
    st.tuples(st.just("reduce"), _RANK),
    st.tuples(st.just("gather"), _RANK),
    st.tuples(st.just("scan")),
    st.tuples(st.just("allgather")),
    st.tuples(st.just("alltoall")),
    st.tuples(st.just("barrier")),
    st.tuples(st.just("work"), _RANK, st.integers(1, 50)),
)
_TREE = st.recursive(
    _LEAF,
    lambda children: st.tuples(
        st.just("seq"), st.integers(1, 2), st.lists(children, min_size=1, max_size=4)
    ),
    max_leaves=12,
)


def _leaves(node):
    """The program a tree denotes: its leaves in execution order."""
    if node[0] != "seq":
        yield node
        return
    for _ in range(node[1]):
        for child in node[2]:
            yield from _leaves(child)


def _oracle(tree, size):
    """Run the program sequentially on a list of per-rank integers."""
    state = list(range(1, size + 1))
    for leaf in _leaves(tree):
        kind = leaf[0]
        if kind == "p2p":
            src, dst = leaf[1] % size, leaf[2] % size
            if src != dst:
                state[dst] += state[src] + leaf[3]
        elif kind in ("ring", "irecv_ring", "halo"):
            shift = leaf[1] % size
            if shift:
                state = [state[r] + state[(r - shift) % size] for r in range(size)]
        elif kind == "allreduce":
            state = [sum(state)] * size
        elif kind == "bcast":
            state = [state[leaf[1] % size]] * size
        elif kind == "reduce":
            state[leaf[1] % size] = sum(state)
        elif kind == "gather":
            root = leaf[1] % size
            state[root] = sum((r + 1) * v for r, v in enumerate(state))
        elif kind == "scan":
            state = [sum(state[: r + 1]) for r in range(size)]
        elif kind == "allgather":
            state = [sum((r + 1) * v for r, v in enumerate(state))] * size
        elif kind == "alltoall":
            state = [sum(state[s] * (r + 1) for s in range(size)) for r in range(size)]
        state = [v % _MOD for v in state]
    return state


def _shift_halo(size: int, shift: int, cache: dict) -> SimpleNamespace:
    """What a halo exchange reads of a ``DistMatrix`` for two rows per rank,
    rank ``r`` receiving both of rank ``r - shift``'s; one per shift and
    run, so repeated exchanges reuse its schedule."""
    if shift not in cache:
        part = RowPartition.contiguous(2 * size, size)
        ext = [2 * ((r - shift) % size) + np.arange(2) for r in range(size)]
        cache[shift] = SimpleNamespace(schedule=HaloSchedule(part, ext), partition=part)
    return cache[shift]


async def _rank_program(comm, tree, alpha, halos):
    """The same program as one rank sees it.  Returns the final value and
    the clock after every step; asserts on the way that no message is
    received earlier than it was sent plus the link latency."""
    size, rank = comm.size, comm.rank
    value = rank + 1
    clocks = [comm.now()]
    for leaf in _leaves(tree):
        kind = leaf[0]
        if kind == "p2p":
            src, dst = leaf[1] % size, leaf[2] % size
            if src != dst and rank == src:
                comm.send((value + leaf[3], comm.now()), dst, tag=5)
            elif src != dst and rank == dst:
                got, sent = await comm.recv(src, tag=5)
                assert comm.now() >= sent + alpha
                value += got
        elif kind == "ring":
            shift = leaf[1] % size
            if shift:
                got, sent = await coll.sendrecv(
                    comm, (value, comm.now()), dest=(rank + shift) % size,
                    source=(rank - shift) % size, tag=6,
                )
                assert comm.now() >= sent + alpha
                value += got
        elif kind == "irecv_ring":
            shift = leaf[1] % size
            if shift:
                request = comm.irecv((rank - shift) % size, tag=7)
                comm.send((value, comm.now()), (rank + shift) % size, tag=7)
                got, sent = await request.wait()
                assert comm.now() >= sent + alpha
                value += got
        elif kind == "allreduce":
            value = int(await comm.allreduce(float(value)))
        elif kind == "halo":
            shift = leaf[1] % size
            if shift:
                halo = np.zeros(2)
                mat = _shift_halo(size, shift, halos)
                rows = np.array([float(value), comm.now()])
                await halo_exchange_finish(
                    comm, mat, halo_exchange_start(comm, mat, rows), halo
                )
                assert comm.now() >= halo[1] + alpha
                value += int(halo[0])
        elif kind == "bcast":
            value = await coll.bcast(comm, value, root=leaf[1] % size)
        elif kind == "reduce":
            total = await coll.reduce(comm, value, operator.add, root=leaf[1] % size)
            if rank == leaf[1] % size:
                value = total
        elif kind == "gather":
            gathered = await coll.gather(comm, value, root=leaf[1] % size)
            if gathered is not None:
                value = sum((r + 1) * v for r, v in enumerate(gathered))
        elif kind == "scan":
            value = await coll.scan(comm, value, operator.add)
        elif kind == "allgather":
            value = sum((r + 1) * v for r, v in enumerate(await coll.allgather(comm, value)))
        elif kind == "alltoall":
            value = sum(await coll.alltoall(comm, [value * (d + 1) for d in range(size)]))
        elif kind == "barrier":
            await coll.barrier(comm)
        elif kind == "work" and rank == leaf[1] % size:
            comm.advance(leaf[2] * 1e-6)
        value %= _MOD
        clocks.append(comm.now())
    return value, clocks


class TestRandomPrograms:
    @settings(max_examples=40, deadline=None)
    @given(_TREE, st.integers(2, 9), st.sampled_from([0.0, 1e-6, 2.5e-4]))
    def test_random_program_matches_sequential_oracle(self, tree, size, alpha):
        clock = ClockModel(alpha=alpha, beta=1e-9)
        out = run_spmd(_rank_program, size, tree, alpha, {}, clock=clock)
        assert [value for value, _ in out] == _oracle(tree, size)
        for _, clocks in out:
            assert clocks == sorted(clocks)  # a rank's clock never runs backwards
        assert out == run_spmd(_rank_program, size, tree, alpha, {}, clock=clock)


class TestPartitionProperties:
    @SETTINGS
    @given(st.integers(6, 14), st.integers(2, 6), st.integers(0, 50))
    def test_partition_covers_all_vertices_balanced(self, n, nparts, seed):
        mat = poisson2d(n)
        part = partition_matrix(mat, nparts, seed=seed)
        counts = np.bincount(part, minlength=nparts)
        assert counts.sum() == mat.nrows
        assert counts.min() > 0
        assert counts.max() / counts.mean() <= 1.3

    @SETTINGS
    @given(st.integers(8, 14), st.integers(2, 5), st.integers(0, 50))
    def test_partition_cut_is_reasonable(self, n, nparts, seed):
        mat = poisson2d(n)
        g = graph_from_matrix(mat)
        part = partition_matrix(mat, nparts, seed=seed)
        # a sane multilevel partition of a grid cuts far less than half of
        # all edges
        assert g.edge_cut(part) < g.num_edges / 2


class TestDistProperties:
    @SETTINGS
    @given(st.integers(6, 14), st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_distributed_spmv_equals_serial(self, n, nparts, seed):
        mat = poisson2d(n)
        part = RowPartition.from_matrix(mat, nparts, seed=seed % 100)
        da = DistMatrix.from_global(mat, part)
        x = np.random.default_rng(seed).standard_normal(mat.nrows)
        got = da.spmv(DistVector.from_global(x, part)).to_global()
        assert np.allclose(got, mat.spmv(x))

    @SETTINGS
    @given(st.integers(6, 12), st.integers(2, 4), st.integers(0, 2**31 - 1))
    def test_halo_volume_counts_off_rank_couplings(self, n, nparts, seed):
        mat = poisson2d(n)
        part = RowPartition.from_matrix(mat, nparts, seed=seed % 100)
        da = DistMatrix.from_global(mat, part)
        # each rank's halo size equals its distinct off-rank columns
        for p, lm in enumerate(da.locals):
            rows = part.global_ids[p]
            cols = set()
            for g in rows:
                lo, hi = mat.indptr[g], mat.indptr[g + 1]
                for c in mat.indices[lo:hi]:
                    if part.owner[c] != p:
                        cols.add(int(c))
            assert lm.n_halo == len(cols)


class TestCacheProperties:
    @SETTINGS
    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=400),
        st.sampled_from([(1024, 64, 2), (4096, 64, 8), (2048, 256, 4)]),
    )
    def test_miss_count_bounds(self, stream, geometry):
        size, line, assoc = geometry
        cfg = CacheConfig(size, line, assoc)
        arr = np.asarray(stream, dtype=np.int64)
        misses = simulate_misses(arr, cfg)
        assert np.unique(arr).size <= misses <= arr.size

    @SETTINGS
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
    def test_infinite_cache_only_cold_misses(self, stream):
        # cache big enough to hold every line: misses == distinct lines
        cfg = CacheConfig(64 * 1024, 64, 16)
        arr = np.asarray(stream, dtype=np.int64)
        assert simulate_misses(arr, cfg) == np.unique(arr).size

    @SETTINGS
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=300))
    def test_determinism(self, stream):
        cfg = CacheConfig(1024, 64, 2)
        arr = np.asarray(stream, dtype=np.int64)
        assert simulate_misses(arr, cfg) == simulate_misses(arr, cfg)
