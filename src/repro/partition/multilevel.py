"""Multilevel recursive-bisection graph partitioner (METIS-like).

The paper distributes matrix rows with METIS (§3).  This module provides an
offline-equivalent partitioner: multilevel bisection (heavy-edge-matching
coarsening → greedy graph-growing initial bisection → FM refinement at every
uncoarsening level) applied recursively to produce ``k`` parts with balanced
vertex weight and small edge cut.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import PartitionError
from repro.partition.coarsen import coarsen_once
from repro.partition.graph import Graph, graph_from_matrix
from repro.partition.refine import fm_refine
from repro.sparse.csr import CSRMatrix

__all__ = ["bisect", "partition_graph", "partition_matrix"]

_COARSEST_SIZE = 64


def _greedy_grow_bisection(
    graph: Graph, target0: int, rng: np.random.Generator, trials: int = 4
) -> np.ndarray:
    """Grow region 0 by BFS from a random seed until it holds ``target0`` weight.

    Runs several trials and keeps the smallest edge cut.
    """
    n = graph.num_vertices
    best_part: np.ndarray | None = None
    best_cut = None
    for _ in range(max(1, trials)):
        part = np.ones(n, dtype=np.int64)
        seed = int(rng.integers(n))
        grown = 0
        queue: deque[int] = deque([seed])
        visited = np.zeros(n, dtype=bool)
        visited[seed] = True
        while queue and grown < target0:
            v = queue.popleft()
            part[v] = 0
            grown += int(graph.vwgt[v])
            for u in graph.neighbours(v):
                if not visited[u]:
                    visited[u] = True
                    queue.append(int(u))
        # disconnected graph: keep growing from unvisited seeds
        while grown < target0:
            rest = np.flatnonzero(part == 1)
            if rest.size == 0:
                break
            nxt = int(rest[rng.integers(rest.size)])
            part[nxt] = 0
            grown += int(graph.vwgt[nxt])
        cut = graph.edge_cut(part)
        if best_cut is None or cut < best_cut:
            best_part, best_cut = part, cut
    assert best_part is not None
    return best_part


def bisect(
    graph: Graph,
    *,
    target0: int | None = None,
    rng: np.random.Generator | None = None,
    max_imbalance: float = 1.05,
) -> np.ndarray:
    """Two-way multilevel partition; returns 0/1 labels per vertex."""
    rng = np.random.default_rng(0) if rng is None else rng
    total = graph.total_vertex_weight()
    if target0 is None:
        target0 = total // 2
    if not 0 < target0 < max(total, 1):
        raise PartitionError(f"target weight {target0} out of range (total {total})")

    # V-cycle: coarsen to a small graph
    levels: list[tuple[Graph, np.ndarray]] = []  # (fine graph, cmap fine->coarse)
    g = graph
    while g.num_vertices > _COARSEST_SIZE:
        step = coarsen_once(g, rng)
        if step is None:
            break
        coarse, cmap = step
        levels.append((g, cmap))
        g = coarse

    # bisect the coarsest graph, then refine again at every finer level
    refine = {"target": (target0, total - target0), "max_imbalance": max_imbalance}
    part = fm_refine(g, _greedy_grow_bisection(g, target0, rng), **refine)
    for fine, cmap in reversed(levels):
        part = fm_refine(fine, part[cmap], **refine)
    return part


def partition_graph(
    graph: Graph,
    nparts: int,
    *,
    seed: int = 0,
    max_imbalance: float = 1.05,
) -> np.ndarray:
    """Partition into ``nparts`` balanced parts by recursive bisection.

    Returns an array mapping each vertex to a part id in ``[0, nparts)``.
    Handles any ``nparts >= 1`` (non powers of two split proportionally).
    ``max_imbalance`` bounds the heaviest part over the mean part of the
    k-way result, up to one vertex weight of granularity.
    """
    if nparts < 1:
        raise PartitionError("nparts must be >= 1")
    n = graph.num_vertices
    if nparts == 1:
        return np.zeros(n, dtype=np.int64)
    if nparts > n:
        raise PartitionError(f"cannot split {n} vertices into {nparts} parts")
    rng = np.random.default_rng(seed)
    part = np.zeros(n, dtype=np.int64)
    part_cap = max_imbalance * graph.total_vertex_weight() / nparts

    def _recurse(vertices: np.ndarray, sub: Graph, parts: int, first_id: int) -> None:
        if parts == 1:
            part[vertices] = first_id
            return
        left = parts // 2
        right = parts - left
        total = sub.total_vertex_weight()
        target0 = int(round(total * left / parts))
        target0 = min(max(target0, 1), max(total - 1, 1))
        # a side may hold what its final parts may hold: slack spent at the
        # levels above is not granted again, so the k-way bound does not compound
        room = max(1.0, parts * part_cap / max(total, 1))
        labels = bisect(sub, target0=target0, rng=rng, max_imbalance=room)
        side0 = np.flatnonzero(labels == 0)
        side1 = np.flatnonzero(labels == 1)
        # guard: a degenerate bisection must still make progress
        if side0.size == 0 or side1.size == 0:
            order = rng.permutation(sub.num_vertices)
            half = max(1, sub.num_vertices * left // parts)
            side0, side1 = np.sort(order[:half]), np.sort(order[half:])
        _recurse(vertices[side0], _induced(sub, side0), left, first_id)
        _recurse(vertices[side1], _induced(sub, side1), right, first_id + left)

    _recurse(np.arange(n, dtype=np.int64), graph, nparts, 0)
    return part


def _induced(graph: Graph, vertices: np.ndarray) -> Graph:
    """Induced subgraph on ``vertices`` (sorted ids)."""
    n = graph.num_vertices
    remap = np.full(n, -1, dtype=np.int64)
    remap[vertices] = np.arange(vertices.size, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    keep = (remap[rows] != -1) & (remap[graph.adjncy] != -1)
    # ``vertices`` ascend, so the kept edges are already grouped by new row id
    xadj = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(remap[rows[keep]], minlength=vertices.size), out=xadj[1:])
    return Graph(
        xadj, remap[graph.adjncy[keep]], graph.adjwgt[keep], graph.vwgt[vertices],
        check=False,
    )


def partition_matrix(
    mat: CSRMatrix,
    nparts: int,
    *,
    seed: int = 0,
    max_imbalance: float = 1.05,
    weight_by_nnz: bool = False,
) -> np.ndarray:
    """Partition the rows of a square matrix via its adjacency graph.

    ``weight_by_nnz=True`` balances stored entries (SpMV work) per part
    instead of row counts — preferable for matrices with skewed row
    densities, where row-balanced partitions are nnz-imbalanced before any
    pattern extension happens.
    """
    graph = graph_from_matrix(mat, weight_by_nnz=weight_by_nnz)
    return partition_graph(graph, nparts, seed=seed, max_imbalance=max_imbalance)
