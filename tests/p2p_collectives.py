"""Textbook MPI collectives written as rank programs over ``send`` / ``recv``.

The runtime itself carries only the traffic the solvers send (the halo
exchange and the summing allreduce).  These are test workloads: each one
drives the engine's point-to-point matching through a classic message
pattern — binomial trees, dissemination, a ring, pairwise exchange, a
chain — with the message counts, bytes and tags MPI implementations use,
so tests can pin the engine's results, clocks and traffic on shapes the
solvers do not produce.  ``op`` is any associative two-argument callable.
"""

from __future__ import annotations

_TAG_BARRIER = 1_000_001
_TAG_BCAST = 1_000_002
_TAG_REDUCE = 1_000_003
_TAG_GATHER = 1_000_005
_TAG_ALLGATHER = 1_000_006
_TAG_SCATTER = 1_000_007
_TAG_ALLTOALL = 1_000_008
_TAG_SCAN = 1_000_009
_TAG_RSCAT = 1_000_010


async def sendrecv(comm, obj, dest: int, source: int, *, tag: int = 0):
    """A buffered send to ``dest``, then a receive from ``source``: a ring
    of these cannot deadlock, whichever rank runs first."""
    comm.send(obj, dest, tag)
    return await comm.recv(source, tag)


async def barrier(comm) -> None:
    """Dissemination barrier: round k exchanges with rank ± 2^k."""
    k = 1
    while k < comm.size:
        await sendrecv(comm, None, (comm.rank + k) % comm.size,
                       (comm.rank - k) % comm.size, tag=_TAG_BARRIER + k)
        k <<= 1


async def bcast(comm, obj, root: int = 0):
    """Binomial-tree broadcast rooted at ``root`` (the MPICH scheme)."""
    size = comm.size
    vrank = (comm.rank - root) % size  # virtual rank: root becomes 0
    mask = 1
    while mask < size:  # receive from the parent, at vrank's lowest set bit
        if vrank & mask:
            obj = await comm.recv((vrank - mask + root) % size, _TAG_BCAST)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:  # forward to the children below that bit
        if vrank + mask < size:
            comm.send(obj, (vrank + mask + root) % size, _TAG_BCAST)
        mask >>= 1
    return obj


async def reduce(comm, value, op, root: int = 0):
    """Binomial-tree reduction; only ``root`` gets the result."""
    size = comm.size
    vrank = (comm.rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            comm.send(value, ((vrank & ~mask) + root) % size, _TAG_REDUCE)
            return None
        if vrank | mask < size:
            value = op(value, await comm.recv(((vrank | mask) + root) % size, _TAG_REDUCE))
        mask <<= 1
    return value


async def gather(comm, value, root: int = 0):
    """Linear gather: the list of every rank's value at ``root``, None elsewhere."""
    if comm.rank != root:
        comm.send(value, root, _TAG_GATHER)
        return None
    return [value if src == root else await comm.recv(src, _TAG_GATHER)
            for src in range(comm.size)]


async def scatter(comm, values, root: int = 0):
    """Linear scatter: rank ``r`` gets ``values[r]`` from ``root``."""
    if comm.rank != root:
        return await comm.recv(root, _TAG_SCATTER)
    for dest in range(comm.size):
        if dest != root:
            comm.send(values[dest], dest, _TAG_SCATTER)
    return values[root]


async def allgather(comm, value):
    """Ring allgather: P−1 rounds, each forwarding what the last received."""
    size, rank = comm.size, comm.rank
    out = [None] * size
    out[rank] = value
    for step in range(1, size):
        value = await sendrecv(comm, value, (rank + 1) % size, (rank - 1) % size,
                               tag=_TAG_ALLGATHER)
        out[(rank - step) % size] = value
    return out


async def alltoall(comm, values):
    """Pairwise exchange: ``values[j]`` goes to rank ``j``."""
    size, rank = comm.size, comm.rank
    out = [None] * size
    out[rank] = values[rank]
    for step in range(1, size):
        dest, source = (rank + step) % size, (rank - step) % size
        out[source] = await sendrecv(comm, values[dest], dest, source,
                                     tag=_TAG_ALLTOALL + step)
    return out


async def scan(comm, value, op):
    """Inclusive prefix reduction along a chain: rank r gets op(v_0, …, v_r)."""
    if comm.rank > 0:
        value = op(await comm.recv(comm.rank - 1, _TAG_SCAN), value)
    if comm.rank + 1 < comm.size:
        comm.send(value, comm.rank + 1, _TAG_SCAN)
    return value


async def reduce_scatter(comm, values, op):
    """Element-wise reduction of per-rank lists; rank r gets element r."""
    size, rank = comm.size, comm.rank
    acc = values[rank]
    for step in range(1, size):
        dest, source = (rank + step) % size, (rank - step) % size
        acc = op(acc, await sendrecv(comm, values[dest], dest, source,
                                     tag=_TAG_RSCAT + step))
    return acc
