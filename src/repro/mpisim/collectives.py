"""The allreduce: recursive doubling over point-to-point messages.

The solvers' dot products are the one collective the SPMD runtime
carries: a sum of every rank's partials, delivered to every rank.  Its
message pattern is the textbook one — recursive doubling, with a fold-in
step when the rank count is not a power of two — so the
:class:`~repro.mpisim.tracker.CommTracker` records traffic shaped like a
real MPI implementation.  Floating-point sums are deterministic for a
fixed size because the combine order is fixed.

:func:`allreduce_schedule` lists the rounds as index arrays, and
:func:`reduce_rounds` runs them for all ranks at once — the clocked
executor's allreduce (:mod:`repro.dist.spmd`): the fold and the unfold
as gathers, the doubling rounds as a butterfly on a reshape of the
power-of-two group's clocks, and the sum as a halving sum of its
partials, bitwise the rounds' ``acc + received``.  A faulted run sends
the same rounds one message at a time.  The tests check both against the
rounds as rank coroutines of blocking ``send`` / ``recv`` messages, and
:func:`reduce_rounds` against the gathered rounds it replaced.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["allreduce_rounds", "allreduce_schedule", "reduce_rounds"]

_TAG_ALLREDUCE = 1_000_004


def allreduce_rounds(size: int) -> int:
    """Messages on the critical path of an allreduce over ``size`` ranks:
    one per doubling round, plus the fold and the unfold when ``size`` is
    not a power of two."""
    doublings = size.bit_length() - 1
    return doublings + (2 if size > 1 << doublings else 0)


@lru_cache(maxsize=16)
def allreduce_schedule(size: int) -> tuple[tuple[np.ndarray, np.ndarray, int, bool], ...]:
    """The message rounds of an allreduce over ``size`` ranks.

    Each round is ``(sources, dests, tag, combine)``: rank ``sources[i]``
    sends its partial sum to ``dests[i]``, which adds it in as
    ``acc = acc + received`` when ``combine`` is set and takes it as its
    result otherwise (the unfold).  Within a round every rank sends before
    it receives, and receives at most once.  The rank lists are read-only
    index arrays, shared by every caller.
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
    their clocks, arrival, sources, sender clocks)``, all copies.

    The fold and the unfold gather their ranks; the doubling rounds run on
    the power-of-two group's clocks, gathered once, where the rank at place
    ``n`` hears from ``n ^ mask``: the other half of its pair in a ``(-1,
    2, mask)`` view.  Both ranks of a pair add the same two values, ``acc +
    received`` and ``received + acc``, equal bits as IEEE addition commutes
    (two NaNs of different payloads aside; rank 0's row, the one the
    solvers read, is the rounds' sum in every case), so each round halves
    the group's distinct rows and the last is every rank's sum."""
    rounds = allreduce_schedule(len(clocks))
    folded = len(clocks) & (len(clocks) - 1)  # not a power of two
    if folded:
        (odd, even, _, _), *rounds, unfold = rounds
        _clock_round(clocks, odd, even, alpha, beta, nbytes, log)
        partials[even] = partials[even] + partials[odd]
    if rounds:
        group = rounds[0][1]
        v, s, mask = clocks[group], partials[group], 1
        for src, dst, _, _ in rounds:
            pairs = v.reshape(-1, 2, mask)
            sent = pairs[:, ::-1]
            arrival = sent + alpha
            if beta:
                arrival += beta * nbytes
            if log is not None:
                log.append((dst, v.copy(), arrival.reshape(-1), src, sent.flatten()))
            np.maximum(pairs, arrival, out=pairs)
            s = s[0::2] + s[1::2]
            mask <<= 1
        clocks[group] = v
        partials[...] = s[0]  # the folded ranks' too: the unfold hands it on
    if folded:
        _clock_round(clocks, *unfold[:2], alpha, beta, nbytes, log)


def _clock_round(clocks, src, dst, alpha: float, beta: float, nbytes: int,
                 log: list | None) -> None:
    """One round's clocks, gathered: the fold or the unfold."""
    sent = clocks[src]
    arrival = sent + alpha
    if beta:
        arrival += beta * nbytes
    if log is not None:
        log.append((dst, clocks[dst], arrival, src, sent))
    clocks[dst] = np.maximum(clocks[dst], arrival)
