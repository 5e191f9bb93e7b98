"""Row distribution of a matrix across ranks (the paper's §3 setup).

The system matrix is distributed by rows: each MPI rank owns a subset of
rows, and the same distribution applies to the unknown and right-hand-side
vectors.  :class:`RowPartition` stores the owner map plus global↔local index
translation.  Within a rank, local indices follow ascending global order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError

__all__ = ["RowPartition"]


class RowPartition:
    """Assignment of ``nrows`` global rows to ``nparts`` ranks.

    Attributes
    ----------
    owner:
        ``owner[g]`` is the rank that owns global row ``g``.
    global_ids:
        ``global_ids[p]`` — ascending global ids owned by rank ``p``; the
        position of ``g`` in this array is its local index on ``p``.
    local_index:
        ``local_index[g]`` — local index of ``g`` on its owner.

    ``owner`` must be a 1-D map of integer ranks in ``[0, nparts)`` (a
    float or boolean map is an error), and every rank must own a row;
    otherwise :class:`~repro.errors.PartitionError` is raised, naming the
    first empty rank.
    """

    __slots__ = ("owner", "nparts", "global_ids", "local_index", "_sizes")

    def __init__(self, owner, nparts: int | None = None):
        owner = np.asarray(owner)
        if owner.ndim != 1:
            raise PartitionError("owner map must be 1-D")
        if owner.size and owner.dtype.kind not in "iu":
            raise PartitionError(f"owner map must hold integer ranks, not {owner.dtype}")
        self.owner = owner.astype(np.int64, copy=False)
        inferred = int(self.owner.max()) + 1 if self.owner.size else 0
        self.nparts = inferred if nparts is None else int(nparts)
        if self.owner.size and (self.owner.min() < 0 or inferred > self.nparts):
            raise PartitionError("owner ids out of range")
        counts = np.bincount(self.owner, minlength=self.nparts)
        if self.nparts > 0 and counts.min() == 0:
            empty = int(np.flatnonzero(counts == 0)[0])
            raise PartitionError(f"rank {empty} owns no rows")
        self._sizes = counts
        # one stable sort lists every rank's rows, rank after rank, each
        # rank's ascending; rank p's run starts at bounds[p]
        order = np.argsort(self.owner, kind="stable")
        bounds = np.zeros(self.nparts + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        edges = bounds.tolist()
        self.global_ids = [order[lo:hi] for lo, hi in zip(edges, edges[1:])]
        self.local_index = np.empty(self.owner.size, dtype=np.int64)
        self.local_index[order] = np.arange(order.size) - np.repeat(bounds[:-1], counts)

    # ------------------------------------------------------------------
    @classmethod
    def contiguous(cls, nrows: int, nparts: int) -> "RowPartition":
        """Balanced contiguous strips (no partitioner needed)."""
        from repro.partition.geometric import strip_partition

        return cls(strip_partition(nrows, nparts), nparts)

    @classmethod
    def from_matrix(
        cls, mat, nparts: int, *, seed: int = 0, weight_by_nnz: bool = False
    ) -> "RowPartition":
        """Partition via the multilevel graph partitioner (METIS stand-in).

        ``weight_by_nnz=True`` balances stored entries per rank instead of
        rows (useful for matrices with skewed row densities, §5.3.3).
        """
        if nparts == 1:
            return cls(np.zeros(mat.nrows, dtype=np.int64), 1)
        from repro.partition.multilevel import partition_matrix

        return cls(
            partition_matrix(mat, nparts, seed=seed, weight_by_nnz=weight_by_nnz),
            nparts,
        )

    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        """Total rows covered by the partition."""
        return self.owner.size

    def size_of(self, rank: int) -> int:
        """Number of rows owned by ``rank``."""
        return self.global_ids[rank].size

    def sizes(self) -> np.ndarray:
        """Rows owned by each rank."""
        return self._sizes.copy()

    def to_local(self, rank: int, global_rows: np.ndarray) -> np.ndarray:
        """Local indices on ``rank`` of rows it owns (error if not owned)."""
        global_rows = np.asarray(global_rows, dtype=np.int64)
        if np.any(self.owner[global_rows] != rank):
            raise PartitionError(f"some rows are not owned by rank {rank}")
        return self.local_index[global_rows]

    def to_global(self, rank: int, local_rows: np.ndarray) -> np.ndarray:
        """Global ids of local rows on ``rank``."""
        return self.global_ids[rank][np.asarray(local_rows, dtype=np.int64)]

    def __eq__(self, other) -> bool:
        if self is other:  # the per-iteration guards compare a partition to itself
            return True
        if not isinstance(other, RowPartition):
            return NotImplemented
        return self.nparts == other.nparts and np.array_equal(self.owner, other.owner)

    def __hash__(self):
        raise TypeError("RowPartition is unhashable")

    def __repr__(self) -> str:
        return f"RowPartition(nrows={self.nrows}, nparts={self.nparts})"
