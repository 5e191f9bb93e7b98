"""The clocked executor's bulk arithmetic and the cost model, one rank at a
time: the reference oracle.

The clocked executor (``repro.dist.spmd``) prices, dots and books every
rank at once, and ``CostModel.iteration_cost`` prices every rank at once.
These are the per-rank computations they replaced, kept as plain
functions over a matrix's per-rank blocks and its schedule's dicts, so
tests can assert the array forms equal them bitwise — tracker dict key
order included.  Each runs a Python pass per rank (or per rank and peer);
none is meant to be fast.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim import simulate_misses
from repro.cachesim.spmv_trace import x_access_lines
from repro.dist.spmd import (
    CG_ITERATION,
    PIPELINED_ITERATION,
    VALUE_BYTES,
    pack_work,
    spmv_work,
    vector_work,
)
from repro.mpisim.collectives import allreduce_schedule


def roofline(clock, flops, nbytes) -> float:
    """``ClockModel.kernel_seconds`` of two Python numbers."""
    return max(flops * clock.flop, nbytes * clock.byte)


def priced(clock, works) -> np.ndarray:
    """The modeled seconds of one ``(flops, bytes)`` per rank."""
    return np.array([roofline(clock, *work) for work in works])


def exchange_seconds(clock, incoming) -> float:
    """A rank's wait for the largest of its ``incoming`` messages' bytes."""
    return clock.message_seconds(max(incoming)) if len(incoming) else 0.0


def message_bytes(schedule) -> dict[tuple[int, int], int]:
    """``(sender, receiver) -> bytes`` of every message, in update order."""
    return {
        (q, p): 8 * int(ids.size)
        for p, by_owner in enumerate(schedule.recv_from)
        for q, ids in by_owner.items()
    }


# -- the clocked executor ------------------------------------------------
def dot_partials(sizes, *pairs) -> np.ndarray:
    """Each rank's ``ndarray.dot`` of its views of each pair, a row per rank."""
    cuts = np.cumsum(sizes)[:-1]
    return np.array([list(map(np.ndarray.dot, np.split(u, cuts), np.split(v, cuts)))
                     for u, v in pairs]).T


def vector_prices(clock, sizes) -> dict:
    """The vector kernels' per-rank seconds the clocked solvers charge."""
    prices = {f"dots{k}": priced(clock, (vector_work(n, dots=k) for n in sizes))
              for k in range(4)}
    for updates in (1, 2, 4):
        prices[f"updates{updates}"] = priced(clock, (vector_work(n, updates=updates)
                                                     for n in sizes))
    return prices


def exchange(mat, clock) -> dict:
    """What a clocked run's exchanges of ``mat`` read: the messages by
    receiver, their link seconds and every rank's pack seconds."""
    sched = mat.schedule
    messages = message_bytes(sched)
    edges = np.array(list(messages), np.intp).reshape(-1, 2)
    dests, segments = np.unique(edges[:, 1], return_index=True)
    return dict(
        src=edges[:, 0],
        link=clock.beta * np.array(list(messages.values()), np.float64),
        dests=dests,
        segments=segments,
        pack_s=priced(clock, (pack_work(sum(ids.size for ids in to.values()))
                              for to in sched.send_to)),
    )


def product(mat, clock, overlap: bool) -> dict:
    """Every rank's seconds of one product with ``mat``, as its rank
    program charges them."""
    locals_ = mat.locals
    out = dict(haloed=np.flatnonzero([lm.n_halo > 0 for lm in locals_]))
    if overlap:
        out["local"] = priced(clock, (spmv_work(lm.local_nnz(), lm.n_local) for lm in locals_))
        out["remote"] = priced(clock, (spmv_work(lm.halo_nnz(), lm.n_local) if lm.n_halo
                                       else (0, 0) for lm in locals_))
    else:
        out["fused"] = priced(clock, (spmv_work(lm.nnz, lm.n_local) for lm in locals_))
    return out


def reduce_rounds(clocks, partials, alpha: float, beta: float, nbytes: int,
                  log: list | None = None) -> None:
    """``collectives.reduce_rounds`` as the rounds run: a gather of every
    round's senders and receivers, its clocks and partials scattered back."""
    for src, dst, _, combines in allreduce_schedule(len(clocks)):
        sent = clocks[src]
        arrival = sent + alpha
        if beta:
            arrival += beta * nbytes
        if log is not None:
            log.append((dst, clocks[dst], arrival, src, sent))
        clocks[dst] = np.maximum(clocks[dst], arrival)
        if combines:
            partials[dst] = partials[dst] + partials[src]
        else:
            partials[dst] = partials[src]


def merge_p2p_many(tracker, srcs, dsts, messages, nbytes) -> None:
    """``CommTracker.merge_p2p_many`` edge after edge."""
    for key, count, total in zip(zip(srcs, dsts), messages, nbytes):
        tracker.p2p_messages[key] = tracker.p2p_messages.get(key, 0) + count
        tracker.p2p_bytes[key] = tracker.p2p_bytes.get(key, 0) + total


def book_bulk(tracker, size: int, calls: int, nbytes: int, halos) -> None:
    """The engine's booking, sender by sender: every round edge of every
    allreduce, then every halo edge of every exchange, from the
    schedules' ``send_to`` dicts."""
    edges: list[dict] = [{} for _ in range(size)]
    traffic = [
        (s, d, calls, nbytes)
        for sources, dests, _, _ in (allreduce_schedule(size) if calls else ())
        for s, d in zip(sources.tolist(), dests.tolist())
    ] + [
        (p, d, n, n * VALUE_BYTES * ids.size)
        for schedule, n in halos if n
        for p in range(size)
        for d, ids in schedule.send_to[p].items() if ids.size
    ]
    for src, dest, messages, total in traffic:
        cell = edges[src].setdefault(dest, [0, 0])
        cell[0] += messages
        cell[1] += total
    for rank, cells in enumerate(edges):
        tracker.merge_p2p(rank, cells)


def sent_messages(size: int, reduced: list[int], halos) -> list:
    """``(senders, nbytes, repeats)`` of a run's messages, for telemetry."""
    rounds = np.concatenate([np.empty(0, np.intp)] + [
        src for src, *_ in allreduce_schedule(size)])
    halos = [(message_bytes(s), n) for s, n in halos if n]
    return [(rounds, np.full(rounds.size, b), np.full(rounds.size, n))
            for b, n in zip(*np.unique(reduced, return_counts=True))] + [
        (np.array([q for q, _ in edges]), np.array(list(edges.values())),
         np.full(len(edges), n)) for edges, n in halos]


# -- the cost model ------------------------------------------------------
def spmv_seconds(model, mat) -> np.ndarray:
    return priced(model.clock, (spmv_work(lm.csr.nnz, lm.csr.nrows) for lm in mat.locals))


def halo_seconds(model, mat) -> np.ndarray:
    sched = mat.schedule
    return np.array([
        roofline(model.clock, *pack_work(sum(ids.size for ids in sched.send_to[p].values())))
        + exchange_seconds(model.clock, [VALUE_BYTES * ids.size
                                         for ids in sched.recv_from[p].values() if ids.size])
        for p in range(mat.partition.nparts)
    ])


def spmv_misses_per_rank(model, mat) -> np.ndarray:
    out = np.zeros(mat.partition.nparts, dtype=np.int64)
    for p, lm in enumerate(mat.locals):
        stream = x_access_lines(lm.csr, model.l1.line_bytes)
        if model.simulate_cache:
            out[p] = simulate_misses(stream, model.l1)
        else:
            out[p] = np.unique(stream).size
    return out


def iteration_cost(model, mat, precond, *, reduction_phases: int = 3) -> dict:
    """``IterationCost.per_rank`` of ``model.iteration_cost``, rank by rank
    (``simulate_cache=False`` for a preconditioner, as the simulator's
    ``Gᵀ(Gx)`` replay is not what this checks)."""
    work = {3: CG_ITERATION, 1: PIPELINED_ITERATION}[reduction_phases]
    nparts = mat.partition.nparts
    misses = spmv_misses_per_rank(model, mat)
    halo = halo_seconds(model, mat)
    precond_t = np.zeros(nparts)
    if precond is not None:
        precond_t = spmv_seconds(model, precond.g) + spmv_seconds(model, precond.gt)
        misses = misses + (spmv_misses_per_rank(model, precond.g)
                           + spmv_misses_per_rank(model, precond.gt))
        halo = halo + halo_seconds(model, precond.g) + halo_seconds(model, precond.gt)
    allreduce = model.clock.allreduce_seconds(nparts, work.allreduce_values * VALUE_BYTES)
    return {
        "spmv_a": spmv_seconds(model, mat),
        "precond": precond_t,
        "misses": misses * model.machine.miss_penalty,
        "halo": halo,
        "reductions": np.full(nparts, work.allreduces * allreduce),
        "vector_ops": np.array([
            roofline(model.clock, *vector_work(n, work.updates, work.dots))
            for n in mat.partition.sizes()
        ]),
    }


def split_operator(mat) -> list:
    """``DistMatrix.split_operator``'s two matrices, sorted by ``from_coo``."""
    from repro.sparse import CSRMatrix

    op, nrows = mat.operator().mat, mat.shape[0]
    rows = np.repeat(np.arange(nrows), np.diff(op.indptr))
    local = op.indices < nrows
    return [CSRMatrix.from_coo((nrows, ncols), rows[keep], op.indices[keep] - shift,
                               op.data[keep])
            for keep, ncols, shift in ((local, nrows, 0), (~local, op.ncols - nrows, nrows))]
