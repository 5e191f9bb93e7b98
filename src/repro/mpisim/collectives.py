"""The allreduce: recursive doubling over point-to-point messages.

The solvers' dot products are the one collective this runtime carries:
``comm.allreduce(value)`` sums a Python float or equal-shape numeric arrays
over every rank.  Its message pattern is the textbook one — recursive
doubling, with a fold-in step when the rank count is not a power of two —
so the :class:`~repro.mpisim.tracker.CommTracker` records traffic shaped
like a real MPI implementation.  Floating-point sums are deterministic for
a fixed size because the combine order is fixed.

:func:`allreduce` is what every rank of a :func:`~repro.mpisim.run_spmd`
run executes: a coroutine of blocking ``send`` / ``recv`` messages, so a
drop, delay or bit-flip in one round changes every later one, and the
tracer sees each message.  :func:`allreduce_schedule` lists the same
rounds as index arrays, and :func:`reduce_rounds` runs them for all ranks
at once with the same operand order, bytes and clocks — the clocked
executor's allreduce (:mod:`repro.dist.spmd`), checked against this one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CommError

if TYPE_CHECKING:  # annotations only: engine.py imports this module
    from repro.mpisim.engine import Comm

__all__ = ["allreduce", "allreduce_rounds", "allreduce_schedule", "reduce_rounds"]

_TAG_ALLREDUCE = 1_000_004


def allreduce_rounds(size: int) -> int:
    """Messages on the critical path of :func:`allreduce` over ``size``
    ranks: one per doubling round, plus the fold and the unfold when
    ``size`` is not a power of two."""
    doublings = size.bit_length() - 1
    return doublings + (2 if size > 1 << doublings else 0)


@lru_cache(maxsize=16)
def allreduce_schedule(size: int) -> tuple[tuple[np.ndarray, np.ndarray, int, bool], ...]:
    """The message rounds of :func:`allreduce` over ``size`` ranks.

    Each round is ``(sources, dests, tag, combine)``: rank ``sources[i]``
    sends its partial sum to ``dests[i]``, which adds it in as
    ``acc = acc + received`` when ``combine`` is set and takes it as its
    result otherwise (the unfold).  Within a round every rank sends before
    it receives, and receives at most once, as in :func:`allreduce`.  The
    rank lists are read-only index arrays, shared by every caller.
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
    arrays = tuple((np.array(s, np.intp), np.array(d, np.intp), tag, combine)
                   for s, d, tag, combine in rounds)
    for src, dst, _, _ in arrays:
        src.flags.writeable = dst.flags.writeable = False
    return arrays


def reduce_rounds(clocks, partials, alpha: float, beta: float, nbytes: int,
                  log: list | None = None) -> None:
    """Every allreduce round for all ranks at once, in place: ``clocks``
    move as the point-to-point rounds move them and ``partials`` (a row per
    rank) become each rank's sum.  ``log`` gets each round's ``(dests,
    their clocks, arrival, sources, sender clocks)``."""
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


def _describe(value) -> str:
    """An allreduce operand, for an error message: a float by its type (a
    partial sum is no one rank's value), anything else with its value."""
    if type(value) is np.ndarray:
        return f"a {value.dtype} array of shape {value.shape}"
    if type(value) is float:
        return "a Python float"
    return f"{type(value).__name__} {value!r:.40}"


def _combine(acc, received, src: int, dst: int):
    """``acc + received`` on rank ``dst``, ``received`` being rank ``src``'s
    partial: both Python floats, or arrays of one shape and dtype.  A
    partial keeps its rank's operand type and shape, so the error names two
    ranks whose operands differ."""
    if type(received) is not type(acc) or (
        type(acc) is np.ndarray
        and (received.shape != acc.shape or received.dtype != acc.dtype)
    ):
        raise CommError(
            f"allreduce: rank {src} passed {_describe(received)} but rank {dst} "
            f"passed {_describe(acc)}; every rank must pass a Python float or a "
            "numeric array of one shape and dtype"
        )
    return acc + received


async def allreduce(comm: Comm, value):
    """Recursive-doubling sum (with pre/post folding when P is not 2^k)."""
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
            acc = _combine(acc, await comm.recv(rank + 1, _TAG_ALLREDUCE), rank + 1, rank)
            newrank = rank // 2
    else:
        newrank = rank - rem
    if newrank != -1:
        mask = 1
        while mask < pof2:
            peer_new = newrank ^ mask
            peer = peer_new * 2 if peer_new < rem else peer_new + rem
            comm.send(acc, peer, _TAG_ALLREDUCE + mask)
            acc = _combine(acc, await comm.recv(peer, _TAG_ALLREDUCE + mask), peer, rank)
            mask <<= 1
    # unfold: send results back to the idle odd ranks
    if rank < 2 * rem:
        if rank % 2 == 0:
            comm.send(acc, rank + 1, _TAG_ALLREDUCE)
        else:
            acc = await comm.recv(rank - 1, _TAG_ALLREDUCE)
    return acc
