"""Graph coarsening by heavy-edge matching (the METIS coarsening phase).

Each coarsening step computes a maximal matching preferring heavy edges,
collapses matched pairs into single coarse vertices, and rebuilds the coarse
graph with summed vertex and edge weights.
"""

from __future__ import annotations

import numpy as np

from repro.partition.graph import Graph

__all__ = ["heavy_edge_matching", "contract", "coarsen_once"]


def heavy_edge_matching(graph: Graph, rng: np.random.Generator) -> np.ndarray:
    """Return ``match`` where ``match[v]`` is v's partner (or v itself).

    Vertices are visited in random order; each unmatched vertex matches its
    unmatched neighbour connected by the heaviest edge (ties broken by lower
    vertex weight to keep coarse weights even).
    """
    n = graph.num_vertices
    # plain lists: the visit order is sequential and NumPy scalar indexing
    # would dominate the loop
    xadj, adjncy, adjwgt, vwgt = (
        a.tolist() for a in (graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt)
    )
    match = [-1] * n
    for v in rng.permutation(n).tolist():
        if match[v] != -1:
            continue
        best, best_w, best_vw = v, -1, 0
        for k in range(xadj[v], xadj[v + 1]):
            u = adjncy[k]
            if match[u] != -1 or u == v:
                continue
            w = adjwgt[k]
            if w > best_w or (w == best_w and vwgt[u] < best_vw):
                best, best_w, best_vw = u, w, vwgt[u]
        match[v] = best
        match[best] = v
    return np.array(match, dtype=np.int64)


def contract(graph: Graph, match: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Collapse matched pairs; returns ``(coarse_graph, cmap)``.

    ``cmap[v]`` is the coarse vertex holding fine vertex ``v``.
    """
    n = graph.num_vertices
    # a pair is numbered where its lower vertex comes in vertex order
    ids = np.arange(n, dtype=np.int64)
    first = np.minimum(ids, match)
    cmap = (np.cumsum(first == ids) - 1)[first]
    nc = int(cmap.max()) + 1 if n else 0

    cvwgt = np.bincount(cmap, graph.vwgt, minlength=nc).astype(np.int64)

    # accumulate coarse edges: (cmap[v], cmap[u], w) dropping self loops
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    cr = cmap[rows]
    cc = cmap[graph.adjncy]
    keep = cr != cc
    cr, cc, cw = cr[keep], cc[keep], graph.adjwgt[keep]
    # combine parallel edges: one sorted key per (row, column) pair
    keys, run = np.unique(cr * nc + cc, return_inverse=True)
    cw = np.bincount(run, cw, minlength=keys.size).astype(np.int64)
    cr, cc = np.divmod(keys, max(nc, 1))
    xadj = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(cr, minlength=nc), out=xadj[1:])
    coarse = Graph(xadj, cc, cw, cvwgt, check=False)
    return coarse, cmap


def coarsen_once(
    graph: Graph, rng: np.random.Generator
) -> tuple[Graph, np.ndarray] | None:
    """One coarsening level; ``None`` when coarsening stops making progress."""
    match = heavy_edge_matching(graph, rng)
    coarse, cmap = contract(graph, match)
    # require meaningful shrinkage, otherwise stop (e.g. star graphs)
    if coarse.num_vertices > 0.95 * graph.num_vertices:
        return None
    return coarse, cmap
