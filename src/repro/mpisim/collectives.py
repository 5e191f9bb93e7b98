"""Generic collective algorithms over blocking point-to-point primitives.

Every collective is a coroutine (it receives, so it can block): rank
programs ``await`` them, usually through the :class:`~repro.mpisim.Comm`
wrappers.

Each collective here uses a textbook message pattern (binomial trees,
recursive doubling, rings) so the :class:`~repro.mpisim.tracker.CommTracker`
records traffic shaped like a real MPI implementation:

* ``barrier``    — dissemination, ⌈log₂P⌉ rounds;
* ``bcast``      — binomial tree;
* ``reduce``     — binomial tree (reversed);
* ``allreduce``  — recursive doubling with a fold-in step for non-powers of 2;
* ``gather`` / ``scatter`` — linear to/from root (as small-message MPI does);
* ``allgather``  — ring, P−1 rounds;
* ``alltoall``   — pairwise exchange.

Reduction operators must be associative; floating-point reductions are
deterministic for a fixed size because the combine order is fixed.

``allreduce`` is the one collective the SPMD engine also runs natively
(:mod:`repro.mpisim.engine`): :func:`allreduce_schedule` lists its rounds,
and the scheduler runs each round across all ranks at once with the same
operand order, messages, bytes and clocks.  The point-to-point text below
stays the reference, and is what every rank runs while a fault injector is
installed: a drop, delay or bit-flip in one round changes every later one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import CommError

if TYPE_CHECKING:  # annotations only: comm.py imports this module
    from repro.mpisim.comm import Comm, ReduceOp

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "allreduce_rounds",
    "allreduce_schedule",
    "gather",
    "allgather",
    "scatter",
    "alltoall",
    "scan",
    "reduce_scatter",
]

_TAG_BARRIER = 1_000_001
_TAG_BCAST = 1_000_002
_TAG_REDUCE = 1_000_003
_TAG_ALLREDUCE = 1_000_004
_TAG_GATHER = 1_000_005
_TAG_ALLGATHER = 1_000_006
_TAG_SCATTER = 1_000_007
_TAG_ALLTOALL = 1_000_008
_TAG_SCAN = 1_000_009
_TAG_RSCAT = 1_000_010


async def barrier(comm: Comm) -> None:
    """Dissemination barrier: round k exchanges with rank ± 2^k."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    k = 1
    while k < size:
        dest = (rank + k) % size
        source = (rank - k) % size
        await comm.sendrecv(None, dest, source, tag=_TAG_BARRIER + k)
        k <<= 1


async def bcast(comm: Comm, obj, root: int = 0):
    """Binomial-tree broadcast rooted at ``root``."""
    size, rank = comm.size, comm.rank
    if not 0 <= root < size:
        raise CommError(f"bad root {root}")
    if size == 1:
        return obj
    vrank = (rank - root) % size  # virtual rank: root becomes 0
    # receive phase: wait on the parent (at the lowest set bit of vrank)
    mask = 1
    while mask < size:
        if vrank & mask:
            src = (vrank - mask + root) % size
            obj = await comm.recv(src, _TAG_BCAST)
            break
        mask <<= 1
    # send phase: forward to children below our receive bit (MPICH scheme)
    mask >>= 1
    while mask > 0:
        child = vrank + mask
        if child < size:
            comm.send(obj, (child + root) % size, _TAG_BCAST)
        mask >>= 1
    return obj


async def reduce(comm: Comm, value, op: ReduceOp, root: int = 0):
    """Binomial-tree reduction; only ``root`` receives the result."""
    size, rank = comm.size, comm.rank
    if not 0 <= root < size:
        raise CommError(f"bad root {root}")
    vrank = (rank - root) % size
    mask = 1
    acc = value
    while mask < size:
        if vrank & mask:
            comm.send(acc, ((vrank & ~mask) + root) % size, _TAG_REDUCE)
            return None
        peer = vrank | mask
        if peer < size:
            other = await comm.recv((peer + root) % size, _TAG_REDUCE)
            acc = op(acc, other)
        mask <<= 1
    return acc if rank == root else None


def allreduce_rounds(size: int) -> int:
    """Messages on the critical path of :func:`allreduce` over ``size``
    ranks: one per doubling round, plus the fold and the unfold when
    ``size`` is not a power of two."""
    doublings = size.bit_length() - 1
    return doublings + (2 if size > 1 << doublings else 0)


def allreduce_schedule(size: int) -> list[tuple[list[int], list[int], int, bool]]:
    """The message rounds of :func:`allreduce` over ``size`` ranks.

    Each round is ``(sources, dests, tag, combine)``: rank ``sources[i]``
    sends its partial result to ``dests[i]``, which folds it in as
    ``acc = op(acc, received)`` when ``combine`` is set and takes it as its
    result otherwise (the unfold).  Within a round every rank sends before
    it receives, and receives at most once, as in :func:`allreduce`.
    """
    pof2 = 1 << (size.bit_length() - 1)
    rem = size - pof2
    odd = list(range(1, 2 * rem, 2))
    even = [r - 1 for r in odd]
    # the power-of-two group, indexed by the rank's place in it
    group = [n * 2 if n < rem else n + rem for n in range(pof2)]
    rounds = [(odd, even, _TAG_ALLREDUCE, True)] if rem else []
    mask = 1
    while mask < pof2:
        peers = [group[n ^ mask] for n in range(pof2)]
        rounds.append((peers, group, _TAG_ALLREDUCE + mask, True))
        mask <<= 1
    if rem:
        rounds.append((even, odd, _TAG_ALLREDUCE, False))
    return rounds


async def allreduce(comm: Comm, value, op: ReduceOp):
    """Recursive-doubling allreduce (with pre/post folding when P not 2^k)."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return value
    pof2 = 1 << (size.bit_length() - 1)  # largest power of two <= size
    rem = size - pof2
    acc = value
    # fold the remainder ranks into the power-of-two group
    if rank < 2 * rem:
        if rank % 2 == 1:  # odd ranks send and go idle
            comm.send(acc, rank - 1, _TAG_ALLREDUCE)
            newrank = -1
        else:
            other = await comm.recv(rank + 1, _TAG_ALLREDUCE)
            acc = op(acc, other)
            newrank = rank // 2
    else:
        newrank = rank - rem
    if newrank != -1:
        mask = 1
        while mask < pof2:
            peer_new = newrank ^ mask
            peer = peer_new * 2 if peer_new < rem else peer_new + rem
            other = await comm.sendrecv(acc, peer, peer, tag=_TAG_ALLREDUCE + mask)
            acc = op(acc, other)
            mask <<= 1
    # unfold: send results back to the idle odd ranks
    if rank < 2 * rem:
        if rank % 2 == 0:
            comm.send(acc, rank + 1, _TAG_ALLREDUCE)
        else:
            acc = await comm.recv(rank - 1, _TAG_ALLREDUCE)
    return acc


async def gather(comm: Comm, value, root: int = 0):
    """Linear gather to ``root``; returns the list at root, None elsewhere."""
    size, rank = comm.size, comm.rank
    if not 0 <= root < size:
        raise CommError(f"bad root {root}")
    if rank == root:
        out = [None] * size
        out[root] = value
        for src in range(size):
            if src != root:
                out[src] = await comm.recv(src, _TAG_GATHER)
        return out
    comm.send(value, root, _TAG_GATHER)
    return None


async def allgather(comm: Comm, value):
    """Ring allgather: P−1 rounds, each rank forwards what it just received."""
    size, rank = comm.size, comm.rank
    out = [None] * size
    out[rank] = value
    if size == 1:
        return out
    right = (rank + 1) % size
    left = (rank - 1) % size
    block = value
    src_rank = rank
    for _ in range(size - 1):
        block = await comm.sendrecv(block, right, left, tag=_TAG_ALLGATHER)
        src_rank = (src_rank - 1) % size
        out[src_rank] = block
    return out


async def scatter(comm: Comm, values, root: int = 0):
    """Linear scatter from ``root``; ``values`` must have length ``size``."""
    size, rank = comm.size, comm.rank
    if not 0 <= root < size:
        raise CommError(f"bad root {root}")
    if rank == root:
        if values is None or len(values) != size:
            raise CommError("scatter needs one value per rank at the root")
        for dst in range(size):
            if dst != root:
                comm.send(values[dst], dst, _TAG_SCATTER)
        return values[root]
    return await comm.recv(root, _TAG_SCATTER)


async def alltoall(comm: Comm, values):
    """Pairwise-exchange all-to-all; ``values[j]`` goes to rank ``j``."""
    size, rank = comm.size, comm.rank
    if values is None or len(values) != size:
        raise CommError("alltoall needs one value per rank")
    out = [None] * size
    out[rank] = values[rank]
    for step in range(1, size):
        dest = (rank + step) % size
        source = (rank - step) % size
        out[source] = await comm.sendrecv(values[dest], dest, source, tag=_TAG_ALLTOALL + step)
    return out


async def scan(comm: Comm, value, op: ReduceOp):
    """Inclusive prefix reduction: rank r receives op(v_0, ..., v_r).

    Linear-chain algorithm: rank r waits for the prefix of r−1, folds its
    value in, forwards to r+1.  Latency O(P), bandwidth optimal — the shape
    small-message MPI implementations use.
    """
    size, rank = comm.size, comm.rank
    acc = value
    if rank > 0:
        prefix = await comm.recv(rank - 1, _TAG_SCAN)
        acc = op(prefix, value)
    if rank + 1 < size:
        comm.send(acc, rank + 1, _TAG_SCAN)
    return acc


async def reduce_scatter(comm: Comm, values, op: ReduceOp):
    """Reduce a per-rank list element-wise, scatter: rank r gets element r.

    ``values`` must have one entry per rank.  Implemented as a pairwise
    exchange ring: each rank accumulates the slot it owns.
    """
    size, rank = comm.size, comm.rank
    if values is None or len(values) != size:
        raise CommError("reduce_scatter needs one value per rank")
    acc = values[rank]
    for step in range(1, size):
        dest = (rank + step) % size
        source = (rank - step) % size
        received = await comm.sendrecv(values[dest], dest, source, tag=_TAG_RSCAT + step)
        acc = op(acc, received)
    return acc
