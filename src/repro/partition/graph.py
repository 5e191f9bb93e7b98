"""Undirected weighted graphs for matrix partitioning.

The distributed solver partitions the *adjacency graph* of the system matrix
(the paper applies METIS to it, §3).  This module defines the graph type used
by the multilevel partitioner in :mod:`repro.partition.multilevel`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import SparsityPattern

__all__ = ["Graph", "graph_from_pattern", "graph_from_matrix"]


class Graph:
    """An undirected graph in CSR adjacency form.

    Attributes
    ----------
    xadj, adjncy:
        CSR adjacency structure: neighbours of vertex ``v`` are
        ``adjncy[xadj[v]:xadj[v+1]]``.  Each undirected edge appears twice.
    adjwgt:
        Edge weights aligned with ``adjncy``.
    vwgt:
        Vertex weights (matrix rows mapped to this vertex).
    """

    __slots__ = ("xadj", "adjncy", "adjwgt", "vwgt")

    def __init__(self, xadj, adjncy, adjwgt=None, vwgt=None, *, check: bool = True):
        self.xadj = np.asarray(xadj, dtype=np.int64)
        self.adjncy = np.asarray(adjncy, dtype=np.int64)
        n = self.xadj.size - 1
        self.adjwgt = (
            np.ones(self.adjncy.size, dtype=np.int64)
            if adjwgt is None
            else np.asarray(adjwgt, dtype=np.int64)
        )
        self.vwgt = (
            np.ones(n, dtype=np.int64) if vwgt is None else np.asarray(vwgt, dtype=np.int64)
        )
        if check:
            self._validate()

    def _validate(self) -> None:
        n = self.num_vertices
        if self.xadj[0] != 0 or np.any(np.diff(self.xadj) < 0):
            raise PartitionError("bad xadj")
        if self.adjncy.size != self.xadj[-1]:
            raise PartitionError("adjncy length mismatch")
        if self.adjwgt.size != self.adjncy.size:
            raise PartitionError("adjwgt length mismatch")
        if self.vwgt.size != n:
            raise PartitionError("vwgt length mismatch")
        if self.adjncy.size:
            if self.adjncy.min() < 0 or self.adjncy.max() >= n:
                raise PartitionError("neighbour index out of range")
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.xadj))
            if np.any(rows == self.adjncy):
                raise PartitionError("self loops are not allowed")

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self.xadj.size - 1

    @property
    def num_edges(self) -> int:
        """Undirected edge count (each edge stored twice in CSR)."""
        return self.adjncy.size // 2

    def neighbours(self, v: int) -> np.ndarray:
        """Neighbour ids of vertex ``v`` (a view)."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        """Edge weights of vertex ``v``'s adjacency (a view)."""
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def total_vertex_weight(self) -> int:
        """Sum of all vertex weights."""
        return int(self.vwgt.sum())

    def edge_cut(self, part: np.ndarray) -> int:
        """Total weight of edges crossing the partition ``part`` (vertex→part)."""
        part = np.asarray(part)
        rows = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.xadj)
        )
        crossing = part[rows] != part[self.adjncy]
        return int(self.adjwgt[crossing].sum()) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"


def graph_from_pattern(
    pat: SparsityPattern, *, vertex_weights: np.ndarray | None = None
) -> Graph:
    """Adjacency graph of a (square) sparsity pattern.

    The pattern is symmetrised and the diagonal dropped; every edge gets
    unit weight.  ``vertex_weights`` defaults to 1 per row; pass the per-row
    nonzero counts to balance partitions by *work* instead of row count
    (the practical choice when row densities vary, cf. the paper's §5.3.3
    imbalance discussion).
    """
    if pat.nrows != pat.ncols:
        raise PartitionError("adjacency graph needs a square pattern")
    adjacency = pat.symmetrized().difference(SparsityPattern.identity(pat.nrows))
    return Graph(adjacency.indptr, adjacency.indices, vwgt=vertex_weights, check=False)


def graph_from_matrix(mat: CSRMatrix, *, weight_by_nnz: bool = False) -> Graph:
    """Adjacency graph of the pattern of a square matrix.

    ``weight_by_nnz=True`` weights each vertex by its row's stored entries,
    so the partitioner balances nonzeros (SpMV work) rather than rows.
    """
    weights = mat.row_nnz() if weight_by_nnz else None
    return graph_from_pattern(
        SparsityPattern.from_csr(mat), vertex_weights=weights
    )
