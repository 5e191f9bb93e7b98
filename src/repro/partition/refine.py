"""Boundary refinement of bisections (Fiduccia–Mattheyses style).

Given a two-way partition, repeatedly move the boundary vertex with the best
*gain* (cut-weight reduction) to the other side, respecting a balance
constraint, and roll back to the best prefix of moves.  This is the classic
FM pass used by multilevel partitioners during uncoarsening, in the shape of
METIS' ``FM_2WayCutRefine``: only boundary vertices are queued, the next move
comes from the side further above its target weight, and a pass gives up
after a bounded run of moves that improved nothing.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from repro.instrument import get_metrics
from repro.partition.graph import Graph

__all__ = ["fm_refine"]

#: A pass ends after ``clamp(n // _STALL_SHARE, _STALL_MIN, _STALL_MAX)`` moves
#: in a row that did not improve on its best prefix (METIS' hill-climbing budget).
_STALL_SHARE, _STALL_MIN, _STALL_MAX = 25, 30, 500


def fm_refine(
    graph: Graph,
    part: np.ndarray,
    *,
    target: tuple[int, int] | None = None,
    max_imbalance: float = 1.05,
    max_passes: int = 4,
) -> np.ndarray:
    """Refine a bisection in place-semantics (returns a new array).

    An admissible input (both sides within ``max_imbalance × target``) comes
    back admissible with a cut no larger; an inadmissible one comes back as
    close to admissible as the moves allow, whatever that does to the cut.

    Parameters
    ----------
    target:
        Desired vertex-weight per side; defaults to an even split.  Used when
        recursive bisection needs uneven halves (k not a power of two).
    max_imbalance:
        A move is admissible while both sides stay within
        ``max_imbalance × target``; from an input that is not, while it does
        not leave the heavier side further above that cap.
    max_passes:
        FM passes; each pass moves every vertex at most once.

    With metrics enabled, applied moves (rolled-back ones included) and
    passes accumulate in ``partition.fm.moves`` / ``partition.fm.passes``.
    """
    part = np.asarray(part, dtype=np.int64).copy()
    n = graph.num_vertices
    total = graph.total_vertex_weight()
    if target is None:
        target = (total // 2, total - total // 2)
    cap = [max(1.0, t * max_imbalance) for t in target]

    def excess(w0: int) -> float:
        """Weight above its cap on the worse side; 0 for an admissible split."""
        return max(w0 - cap[0], total - w0 - cap[1], 0)

    w0 = int(graph.vwgt[part == 0].sum())
    stall = min(max(n // _STALL_SHARE, _STALL_MIN), _STALL_MAX)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    # float64 bincount sums are exact for integer weights below 2**53
    deg_arr = np.bincount(rows, graph.adjwgt, minlength=n).astype(np.int64)
    # the move loop runs on plain lists: NumPy scalar indexing would dominate
    xadj, adjncy, adjwgt, vwgt, deg = (
        a.tolist() for a in (graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt, deg_arr)
    )

    for _ in range(max_passes):
        # gain = external − internal degree, the cut reduction if the vertex
        # moved; a vertex is on the boundary iff its external degree is > 0
        crossing = part[rows] != part[graph.adjncy]
        ext = np.bincount(rows, graph.adjwgt * crossing, minlength=n).astype(np.int64)
        gain_arr = 2 * ext - deg_arr
        gain, side = gain_arr.tolist(), part.tolist()
        # heap entries are (-gain, tick, vertex); ticks count down as the pass
        # pushes, so among equal gains the most recently touched vertex moves
        # first — the LIFO buckets of classic FM, which measurably lower the cut
        heaps: tuple[list, list] = ([], [])
        for s in (0, 1):
            boundary = np.flatnonzero((ext > 0) & (part == s)).tolist()
            heaps[s].extend(zip((-gain_arr[boundary]).tolist(), boundary, boundary))
            heapify(heaps[s])
        tick = 0
        locked = bytearray(n)
        moves: list[int] = []
        cum = best_len = 0
        over = excess(w0)
        # a prefix is better if it is less overweight, then if it cuts less,
        # then if it is closer to the target
        best_key, best_w0 = (-over, 0, -abs(w0 - target[0])), w0
        while len(moves) - best_len <= stall:
            # take from the side further above its target
            src = 0 if w0 - target[0] > total - w0 - target[1] else 1
            v = -1
            while heaps[src]:
                neg_g, _, u = heappop(heaps[src])
                if locked[u] or -neg_g != gain[u]:
                    continue  # stale heap entry
                locked[u] = 1  # moved or inadmissible: once per pass either way
                moved_w0 = w0 - vwgt[u] if src == 0 else w0 + vwgt[u]
                moved_over = excess(moved_w0)
                if moved_over <= over:
                    v = u
                    break
            if v < 0:
                break
            w0, over = moved_w0, moved_over
            dst = side[v] = 1 - src
            cum += gain[v]
            moves.append(v)
            key = (-over, cum, -abs(w0 - target[0]))
            if key > best_key:
                best_key, best_len, best_w0 = key, len(moves), w0
            for k in range(xadj[v], xadj[v + 1]):
                u = adjncy[k]
                if locked[u]:
                    continue
                # v joined (left) u's side: the u–v edge turned internal (external)
                if side[u] == dst:
                    gain[u] -= 2 * adjwgt[k]
                else:
                    gain[u] += 2 * adjwgt[k]
                if gain[u] > -deg[u]:
                    tick -= 1
                    heappush(heaps[side[u]], (-gain[u], tick, u))
        # roll back moves past the best prefix
        for v in moves[best_len:]:
            side[v] = 1 - side[v]
        w0 = best_w0
        part = np.array(side, dtype=np.int64)
        get_metrics().counter("partition.fm.moves").inc(len(moves))
        get_metrics().counter("partition.fm.passes").inc()
        if best_len == 0:
            break
    return part
