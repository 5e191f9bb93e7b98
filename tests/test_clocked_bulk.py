"""The clocked executor's pricing, dot partials and booking, and
``CostModel.iteration_cost``, computed for every rank at once, are bitwise
the per-rank computations they replaced (``tests/clocked_oracle.py``).

Every array must match the oracle's dtype, shape and bytes, every tracker
dict its keys in the same order.  The partitions cover one rank, a rank
count that is not a power of two, contiguous strips, a 2-D block grid
with unequal blocks, random owner maps with unequal ranks out of order,
and a rank with no halo.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np
import pytest

import clocked_oracle as oracle
from repro.core import build_fsai
from repro.dist import DistMatrix, DistVector, HaloSchedule, RowPartition
from repro.dist import spmd
from repro.dist.spmd import _Exchange, _Ledger, _Product, book_bulk, vector_work
from repro.matgen import poisson2d
from repro.mpisim import CommTracker
from repro.mpisim.collectives import reduce_rounds
from repro.partition import block_partition_2d
from repro.perfmodel import SKYLAKE, CostModel
from repro.sparse import CSRMatrix

CLOCK = SKYLAKE.clock_model()


def same(a, b) -> bool:
    """Bitwise equality: dtype, shape and every byte."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def block_diagonal(*blocks: CSRMatrix) -> CSRMatrix:
    rows, cols, vals, at = [], [], [], 0
    for block in blocks:
        r, c, v = block.to_coo()
        rows.append(r + at)
        cols.append(c + at)
        vals.append(v)
        at += block.nrows
    return CSRMatrix.from_coo((at, at), np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))


def random_owner(n: int, nparts: int, seed: int) -> np.ndarray:
    """Every rank owns a row; the rest are scattered, so ranks differ in
    length and equal lengths are not consecutive ranks."""
    rng = np.random.default_rng(seed)
    owner = np.concatenate([np.arange(nparts), rng.integers(0, nparts, n - nparts)])
    return rng.permutation(owner)


def _cases():
    isolated = block_diagonal(poisson2d(6), poisson2d(6))
    owner = np.concatenate([np.zeros(36, np.int64), 1 + random_owner(36, 3, 5)])
    return {
        "one_rank": (poisson2d(8), RowPartition.contiguous(64, 1)),
        "fifteen_strips": (poisson2d(10), RowPartition.contiguous(100, 15)),
        "strips": (poisson2d(12), RowPartition.contiguous(144, 4)),
        "unequal_blocks_2d": (poisson2d(20),
                              RowPartition(block_partition_2d(20, 20, 3, 3), 9)),
        "random_owner": (poisson2d(12), RowPartition(random_owner(144, 7, 3), 7)),
        "rank_without_halo": (isolated, RowPartition(owner, 4)),
    }


CASES = _cases()


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    mat, part = CASES[request.param]
    return request.param, mat, part, DistMatrix.from_global(mat, part), build_fsai(mat, part)


def test_the_cases_cover_what_they_are_named_for():
    sizes = {name: part.sizes() for name, (_, part) in CASES.items()}
    assert CASES["one_rank"][1].nparts == 1
    assert CASES["fifteen_strips"][1].nparts == 15
    for name in ("unequal_blocks_2d", "random_owner"):
        lengths = sizes[name]
        first = {n: np.flatnonzero(lengths == n) for n in np.unique(lengths)}
        assert len(first) > 1
        assert any(np.any(np.diff(ranks) > 1) for ranks in first.values()), name
    mat, part = CASES["rank_without_halo"]
    schedule = DistMatrix.from_global(mat, part).schedule
    assert schedule.ext_cols[0].size == 0 and schedule.send_to[0] == {}


# -- the cost model ------------------------------------------------------
@pytest.mark.parametrize("phases", [3, 1])
@pytest.mark.parametrize("preconditioned", [True, False])
def test_iteration_cost_per_rank_is_the_per_rank_oracle(case, phases, preconditioned):
    _, _, _, da, fsai = case
    precond = fsai if preconditioned else None
    model = CostModel(SKYLAKE, simulate_cache=False)
    cost = model.iteration_cost(da, precond, reduction_phases=phases)
    want = oracle.iteration_cost(model, da, precond, reduction_phases=phases)
    assert list(cost.per_rank) == list(want)
    for name in want:
        assert same(cost.per_rank[name], want[name]), name


def test_the_cache_simulator_arm_is_the_per_rank_oracle(case):
    _, _, _, da, fsai = case
    model = CostModel(SKYLAKE)
    for mat in (da, fsai.g, fsai.gt):
        assert same(model.spmv_misses_per_rank(mat), oracle.spmv_misses_per_rank(model, mat))


# -- the clocked executor ------------------------------------------------
@pytest.mark.parametrize("overlap", [False, True])
def test_a_products_prices_are_the_rank_programs(case, overlap):
    _, _, part, da, fsai = case
    for mat in (da, fsai.g, fsai.gt):
        got = _Product(_Ledger(part, CLOCK), mat, overlap)
        exchange, product = oracle.exchange(mat, CLOCK), oracle.product(mat, CLOCK, overlap)
        for name in ("src", "link", "dests", "segments", "pack_s"):
            assert same(getattr(got, name), exchange[name]), name
        assert same(got.haloed, product["haloed"])
        if overlap:
            assert same(got.local[1], product["local"]) and same(got.remote[1], product["remote"])
        else:
            assert same(got.fused[1], product["fused"])


def test_vector_prices_are_the_rank_programs(case):
    _, _, part, _, _ = case
    sizes = _Ledger(part, CLOCK).sizes
    want = oracle.vector_prices(CLOCK, sizes.tolist())
    for k in range(4):
        assert same(CLOCK.kernel_seconds(*vector_work(sizes, dots=k)), want[f"dots{k}"])
    for updates in (1, 2, 4):
        assert same(CLOCK.kernel_seconds(*vector_work(sizes, updates=updates)),
                    want[f"updates{updates}"])


def scaled_vectors(n: int, count: int, seed: int) -> list[np.ndarray]:
    """Values over sixteen decades: a sum in another order differs."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n) for _ in range(count)]


def test_dot_partials_are_each_ranks_ndarray_dot(case, monkeypatch):
    _, _, part, _, _ = case
    seen = []

    def capture(clocks, partials, *args):
        seen.append(partials.copy())
        reduce_rounds(clocks, partials, *args)

    monkeypatch.setattr(spmd, "reduce_rounds", capture)
    r, u, w = scaled_vectors(part.nrows, 3, seed=part.nparts)
    ledger = _Ledger(part, CLOCK)
    seconds = np.zeros(part.nparts)
    for pairs in [((r, r),), ((r, u), (w, u)), ((r, r), (r, u), (w, u))]:
        sums = ledger.dots(seconds, *pairs)
        want = oracle.dot_partials(part.sizes(), *pairs)
        assert same(seen[-1], want)
        reduce_rounds(np.zeros(part.nparts), want, CLOCK.alpha, CLOCK.beta, 8)
        assert sums == want[0].tolist()


REDUCE_SIZES = (1, 2, 3, 5, 15, 16, 17, 255, 256, 300)


def reduce_inputs(size: int, values: int, special: str, seed: int):
    """Clocks with ties (equal arrivals, equal clocks) and partials over
    sixteen decades; ``special`` puts signed zeros or infinities in."""
    rng = np.random.default_rng(seed)
    clocks = rng.integers(0, 4, size) * 1e-6 + np.where(rng.random(size) < 0.5, 0.0,
                                                        rng.random(size) * 1e-5)
    partials = rng.standard_normal((size, values)) * 10.0 ** rng.uniform(-8, 8, (size, values))
    if special == "zeros":  # a sum of zeros keeps or loses its sign by order
        partials = np.where(rng.random((size, values)) < 0.5, -0.0, 0.0)
    elif special == "infinities":  # inf − inf is NaN: the sign of what meets
        hit = rng.random((size, values)) < 4 / size
        partials[hit] = np.where(rng.random(hit.sum()) < 0.5, -np.inf, np.inf)
    return clocks, partials


def assert_reduces_as_the_rounds(size, values, beta, special, seed=0):
    clocks, partials = reduce_inputs(size, values, special, seed)
    got = [clocks.copy(), partials.copy(), []]
    want = [clocks.copy(), partials.copy(), []]
    with np.errstate(invalid="ignore"):  # inf − inf
        reduce_rounds(*got[:2], CLOCK.alpha, beta, 8 * values, got[2])
        oracle.reduce_rounds(*want[:2], CLOCK.alpha, beta, 8 * values, want[2])
    assert same(got[0], want[0]) and same(got[1], want[1])
    assert len(got[2]) == len(want[2])
    for mine, theirs in zip(got[2], want[2]):
        assert len(mine) == 5 and all(same(a, b) for a, b in zip(mine, theirs))
    # every clock in the log is its own copy: later rounds overwrite nothing
    logged = [a for entry in got[2] for a in (entry[1], entry[2], entry[4])]
    assert not any(np.shares_memory(a, got[0]) for a in logged)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(logged) for b in logged[i + 1:])
    unlogged = [clocks.copy(), partials.copy()]
    with np.errstate(invalid="ignore"):
        reduce_rounds(*unlogged, CLOCK.alpha, beta, 8 * values)
    assert same(unlogged[0], want[0]) and same(unlogged[1], want[1])


@pytest.mark.parametrize("special", ["plain", "zeros", "infinities"])
@pytest.mark.parametrize("beta", [0.0, CLOCK.beta])
@pytest.mark.parametrize("values", [1, 3])
@pytest.mark.parametrize("size", REDUCE_SIZES)
def test_reduce_rounds_is_the_rounds_bitwise(size, values, beta, special):
    """The reshaped butterfly and halving sum are the per-round gathers:
    clocks, partials and the traced log, bit for bit."""
    assert_reduces_as_the_rounds(size, values, beta, special, seed=size)


@pytest.mark.parametrize("size", [4096, 32768])
def test_reduce_rounds_is_the_rounds_bitwise_at_the_papers_counts(size):
    assert_reduces_as_the_rounds(size, 3, CLOCK.beta, "plain" if size == 4096 else "zeros")


def test_merge_p2p_many_is_the_loop_key_order_included():
    """Repeated edges add up in order, on a tracker that already holds
    traffic, from lists and from a ``repeat`` of counts."""
    rng = np.random.default_rng(1)
    srcs, dsts = rng.integers(0, 5, (2, 60)).tolist()
    totals = rng.integers(0, 1000, 60).tolist()
    for messages in (rng.integers(1, 4, 60).tolist(), None):
        got, want = CommTracker(), CommTracker()
        for tracker in (got, want):
            tracker.record_p2p(4, 2, 16)
            tracker.record_p2p(0, 3, 8)
        got.merge_p2p_many(srcs, dsts, repeat(1) if messages is None else messages, totals)
        oracle.merge_p2p_many(want, srcs, dsts, repeat(1) if messages is None else messages,
                              totals)
        for name in ("p2p_messages", "p2p_bytes"):
            assert list(getattr(got, name).items()) == list(getattr(want, name).items())
    assert len(set(zip(srcs, dsts))) < len(srcs)  # the grid repeats edges


def test_book_bulk_is_the_engine_booking_key_order_included(case):
    _, _, part, da, fsai = case
    halos = [(da.schedule, 3), (fsai.g.schedule, 0), (fsai.gt.schedule, 2)]
    got, want = CommTracker(), CommTracker()
    for tracker in (got, want):  # earlier traffic keeps its keys' places
        tracker.record_p2p(part.nparts - 1, 0, 16)
        da.schedule.gather(DistVector.from_values(part, np.zeros(part.nrows)),
                           np.empty(da.schedule.total_halo_values()), tracker)
    book_bulk(got, part.nparts, 5, 96, halos)
    oracle.book_bulk(want, part.nparts, 5, 96, halos)
    for name in ("p2p_messages", "p2p_bytes"):
        assert list(getattr(got, name).items()) == list(getattr(want, name).items()), name


def test_a_bsp_update_books_its_messages_in_update_order(case):
    _, _, part, da, _ = case
    tracker = CommTracker()
    da.schedule.gather(DistVector.from_values(part, np.zeros(part.nrows)),
                       np.empty(da.schedule.total_halo_values()), tracker)
    want = oracle.message_bytes(da.schedule)
    assert list(tracker.p2p_bytes.items()) == list(want.items())
    assert list(tracker.p2p_messages.items()) == [(key, 1) for key in want]


def test_telemetry_messages_are_the_oracles(case):
    _, _, part, da, fsai = case
    ledger = _Ledger(part, CLOCK)
    for mat, exchanges in ((da, 4), (fsai.g, 0), (fsai.gt, 1)):
        _Exchange(ledger, mat).starts[1] += exchanges
    ledger.reduced = [8, 24, 8]
    got = ledger.messages()
    want = oracle.sent_messages(part.nparts, ledger.reduced,
                                [(da.schedule, 4), (fsai.g.schedule, 0), (fsai.gt.schedule, 1)])
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):  # aggregate() casts: dtypes aside (empty: float)
        for a, b in zip(mine, theirs):
            assert np.array_equal(a, b) and (a.dtype.kind == b.dtype.kind or not a.size)


def test_split_operator_is_the_sorted_split(case):
    _, _, _, da, fsai = case
    for mat in (da, fsai.g, fsai.gt):
        for plan, want in zip(mat.split_operator(), oracle.split_operator(mat)):
            got = plan.mat
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                assert same(getattr(got, name), getattr(want, name)), name


def test_schedule_summaries_are_the_dicts(case):
    _, _, part, da, _ = case
    sched = da.schedule
    assert sched.edges() == {(q, p) for p, d in enumerate(sched.recv_from) for q in d}
    assert same(sched.neighbour_counts(),
                np.array([len(d) for d in sched.recv_from], dtype=np.int64))
    assert same(sched.send_sizes(), np.array(
        [sum(ids.size for ids in to.values()) for to in sched.send_to], dtype=np.int64))
    assert sched.total_halo_values() == sum(c.size for c in sched.ext_cols)


def test_a_stacked_matmul_is_ndarray_dot_at_every_length():
    """The clocked executor's dot partials are stacked ``matmul`` calls; a
    NumPy whose ``matmul`` of a row by a column stops running the dot
    kernel would change every clocked solution's last bits."""
    rng = np.random.default_rng(0)
    bad = []
    for length in range(1, 4098):
        u, v = rng.standard_normal((2, 3 * length)) * 10.0 ** rng.uniform(-8, 8, 3 * length)
        want = [float(np.dot(a, b)) for a, b in zip(u.reshape(3, length), v.reshape(3, length))]
        stacked = np.matmul(u.reshape(3, 1, length), v.reshape(3, length, 1)).reshape(-1)
        picked = np.array([0, 2])
        rows = (picked[:, None] * length + np.arange(length)).reshape(-1)
        gathered = np.matmul(u[rows].reshape(2, 1, length),
                             v[rows].reshape(2, length, 1)).reshape(-1)
        if stacked.tolist() != want or gathered.tolist() != [want[0], want[2]]:
            bad.append(length)
    assert not bad, (
        f"np.matmul of a (g, 1, n) by a (g, n, 1) stack differs from ndarray.dot in the "
        f"last bits at lengths {bad[:10]}{'…' if len(bad) > 10 else ''} on NumPy "
        f"{np.__version__}: the clocked executor's dot partials (_Ledger.dots) are no "
        "longer the rank programs'"
    )


# -- HaloSchedule equality -----------------------------------------------
def test_schedules_differing_in_one_ranks_halo_compare_unequal():
    part = RowPartition.contiguous(12, 3)
    ext = [np.array([4, 5]), np.array([0, 8]), np.array([6, 7])]
    moved = [ext[0], np.array([0, 9]), ext[2]]
    assert HaloSchedule(part, ext) == HaloSchedule(part, [c.copy() for c in ext])
    assert HaloSchedule(part, ext) != HaloSchedule(part, moved)


def test_schedules_splitting_one_concatenation_differently_compare_unequal():
    part = RowPartition.contiguous(12, 3)
    ext = [np.array([4, 8]), np.array([9]), np.array([0])]
    shifted = [np.array([4]), np.array([8, 9]), np.array([0])]
    assert np.array_equal(np.concatenate(ext), np.concatenate(shifted))
    assert HaloSchedule(part, ext) != HaloSchedule(part, shifted)
    assert HaloSchedule(part, ext) != HaloSchedule(RowPartition.contiguous(12, 3), shifted)
