"""Row-distributed sparse matrices with localised column indexing.

Each rank's rows have their columns renumbered into the *local index
space* (paper §3): positions ``[0, n_local)`` are the rank's own unknowns
(ascending global order) and positions ``[n_local, n_local + n_halo)`` are
the halo unknowns in the order of :attr:`HaloSchedule.ext_cols`.  The SpMV
multiplying vector is the concatenation ``[x_local | x_halo]`` — the memory
layout whose cache lines the FSAIE/FSAIE-Comm extensions exploit.

A :class:`DistMatrix` stores every rank's block in one CSR structure, rank
after rank; a rank's :class:`LocalMatrix` is a view, built on first access.
The solvers apply all ranks' blocks at once: :meth:`DistMatrix.operator`
remaps the stacked columns onto ``[every x_local | every x_halo]``, so a
distributed product is one compiled call whose every row is summed exactly
as its rank's block sums it.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.dist.halo import HaloSchedule
from repro.dist.partition_map import RowPartition
from repro.dist.vector import DistVector
from repro.errors import ShapeError
from repro.instrument import get_metrics
from repro.mpisim.tracker import CommTracker
from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:
    from repro.kernels.plan import SpMVPlan

__all__ = ["LocalMatrix", "DistMatrix"]


class LocalMatrix:
    """One rank's block of a row-distributed matrix.

    Attributes
    ----------
    csr:
        ``n_local × (n_local + n_halo)`` CSR block in local column indexing.
    global_rows:
        Global ids of the local rows (ascending).
    ext_cols:
        Global ids of the halo columns (ascending), aligned with local column
        positions ``n_local + k``.
    rank:
        Owning rank.
    """

    __slots__ = ("rank", "csr", "global_rows", "ext_cols")

    def __init__(self, rank: int, csr: CSRMatrix, global_rows: np.ndarray, ext_cols: np.ndarray):
        self.rank = int(rank)
        self.csr = csr
        self.global_rows = np.asarray(global_rows, dtype=np.int64)
        self.ext_cols = np.asarray(ext_cols, dtype=np.int64)
        if csr.shape != (self.global_rows.size, self.global_rows.size + self.ext_cols.size):
            raise ShapeError(
                f"rank {rank}: local CSR shape {csr.shape} inconsistent with "
                f"{self.global_rows.size} rows and {self.ext_cols.size} halo columns"
            )

    @property
    def n_local(self) -> int:
        """Number of owned rows."""
        return self.global_rows.size

    @property
    def n_halo(self) -> int:
        """Number of halo columns."""
        return self.ext_cols.size

    @property
    def nnz(self) -> int:
        """Stored entries of the local block."""
        return self.csr.nnz

    def local_nnz(self) -> int:
        """Stored entries in the local (non-halo) column block."""
        return int(np.count_nonzero(self.csr.indices < self.n_local))

    def halo_nnz(self) -> int:
        """Stored entries in the halo column block."""
        return self.nnz - self.local_nnz()

    def column_global_id(self, local_col: int) -> int:
        """Global id of a local column position."""
        if local_col < self.n_local:
            return int(self.global_rows[local_col])
        return int(self.ext_cols[local_col - self.n_local])

    def __repr__(self) -> str:
        return (
            f"LocalMatrix(rank={self.rank}, n_local={self.n_local}, "
            f"n_halo={self.n_halo}, nnz={self.nnz})"
        )


class DistMatrix:
    """A sparse matrix distributed by rows with a halo exchange schedule.

    Stored as every rank's block in one CSR structure, rank after rank:
    ``indptr`` over the ranks' rows in rank order (``nrows + 1`` entries,
    the layout of :attr:`DistVector.values`), each entry's column in its
    rank's local numbering and its value.  The per-rank
    :class:`LocalMatrix` views of :attr:`locals` are built on first access;
    the matrix must not be mutated.
    """

    __slots__ = ("partition", "schedule", "shape", "indptr", "_values", "_entries",
                 "_locals", "_operator", "_split", "_split_operator", "__weakref__")

    def __init__(
        self,
        partition: RowPartition,
        schedule: HaloSchedule,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ):
        if indptr.size != partition.nrows + 1 or not indices.size == data.size == indptr[-1]:
            raise ShapeError("stacked blocks need nrows + 1 row pointers and one column "
                             "and one value per entry")
        self.partition = partition
        self.schedule = schedule
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr, self._values = indptr, data
        self._entries = indptr[self._row_offsets()], indices
        self._locals: list[LocalMatrix] | None = None
        self._operator: weakref.ref[SpMVPlan] | None = None
        self._split: list | None = None
        self._split_operator: tuple[SpMVPlan, SpMVPlan] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_global(cls, mat: CSRMatrix, partition: RowPartition) -> "DistMatrix":
        """Distribute a square global matrix by rows according to ``partition``.

        Every rank is built at once, into the stacked arrays.  Relies on the
        CSR invariant that each row's columns ascend.
        """
        if mat.nrows != mat.ncols:
            raise ShapeError("DistMatrix.from_global expects a square matrix")
        if mat.nrows != partition.nrows:
            raise ShapeError("partition size does not match the matrix")
        schedule, halo, halo_rank, halo_pos = HaloSchedule._from_entries(
            partition, mat.indptr, mat.indices
        )
        owner, local_index, sizes = partition.owner, partition.local_index, partition.sizes()
        row_offsets = np.zeros(partition.nparts + 1, dtype=np.int64)
        np.cumsum(sizes, out=row_offsets[1:])
        lengths = np.diff(mat.indptr)
        if np.all(owner[1:] >= owner[:-1]):  # the ranks' rows are in global order
            ptr = mat.indptr.copy()
            cols, values = local_index[mat.indices], mat.data.copy()
        else:
            # the blocks hold the rows rank after rank: one compiled ragged
            # gather of those rows (imported here, not with the package)
            from repro.kernels.plan import _sparsetools

            rows = np.concatenate(partition.global_ids)
            ptr = np.zeros(rows.size + 1, dtype=np.int64)
            np.cumsum(lengths[rows], out=ptr[1:])
            cols, values = np.empty(ptr[-1], dtype=np.int64), np.empty(ptr[-1])
            _sparsetools().csr_row_index(rows.size, rows, mat.indptr, mat.indices, mat.data,
                                         cols, values)
            # "clip": indices are in range, and "raise" would buffer
            np.take(local_index, cols, out=cols, mode="clip")
        # owned columns now hold their local index; a halo column goes after
        # its rank's rows, at its position in ext_cols
        halo_row = np.searchsorted(mat.indptr, halo, side="right") - 1
        row_start = ptr[row_offsets[owner[halo_row]] + local_index[halo_row]]  # in the blocks
        at = row_start + halo - mat.indptr[halo_row]
        cols[at] = sizes[halo_rank] + halo_pos
        # a row's local columns are two ascending runs (owned, then halo)
        # interleaved in global order: from its first halo entry on, a row
        # is re-sorted by a stable sort on (row, halo or not)
        first = np.flatnonzero(np.diff(halo_row, prepend=-1))  # each row's first halo entry
        width = row_start[first] + lengths[halo_row[first]] - at[first]
        at = np.repeat(at[first] - np.cumsum(width) + width, width)
        at += np.arange(at.size, dtype=np.int64)  # those entries, in block order
        key = np.repeat(np.arange(0, 2 * first.size, 2, dtype=np.int64), width)
        key += cols[at] >= np.repeat(sizes[halo_rank[first]], width)
        fix = at[np.argsort(key, kind="stable")]
        cols[at], values[at] = cols[fix], values[fix]
        return cls(partition, schedule, mat.shape, ptr, cols, values)

    def to_global(self) -> CSRMatrix:
        """Reassemble the global matrix (testing/debugging helper)."""
        rows = np.concatenate([np.empty(0, dtype=np.int64), *self.partition.global_ids])
        # the operator's input buffer holds every rank's rows, then every halo
        global_ids = np.concatenate([rows, self.schedule.halo_columns])
        return CSRMatrix.from_coo(
            self.shape, np.repeat(rows, np.diff(self.indptr)),
            global_ids[self._operator_indices()], self._values,
        )

    # ------------------------------------------------------------------
    @property
    def locals(self) -> list[LocalMatrix]:
        """Every rank's :class:`LocalMatrix`, built on first access: each
        block's ``indices`` and ``data`` are views of the stacked arrays."""
        if self._locals is None:
            part, ext = self.partition, self.schedule.ext_cols
            offsets, cols = self._entries
            rb, eb = self._row_offsets().tolist(), offsets.tolist()
            self._locals = [
                LocalMatrix(p, CSRMatrix((r1 - r0, r1 - r0 + halo.size),
                                         self.indptr[r0 : r1 + 1] - e0, cols[e0:e1],
                                         self._values[e0:e1], check=False), ids, halo)
                for p, (ids, halo, r0, r1, e0, e1) in enumerate(
                    zip(part.global_ids, ext, rb, rb[1:], eb, eb[1:]))
            ]
        return self._locals

    @property
    def nnz(self) -> int:
        """Total stored entries across all ranks."""
        return int(self.indptr[-1])

    def nnz_per_rank(self) -> np.ndarray:
        """Stored entries per rank."""
        return np.diff(self._entries[0])

    def block_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """``(offsets, indices)``: every block's column indices (local
        indexing) in one array, rank after rank, rank ``p``'s at
        ``offsets[p] : offsets[p + 1]``."""
        return self._entries

    def _row_offsets(self) -> np.ndarray:
        """Where each rank's rows start in the stacked rows (``nparts + 1``)."""
        offsets = np.zeros(self.partition.nparts + 1, dtype=np.int64)
        np.cumsum(self.partition.sizes(), out=offsets[1:])
        return offsets

    def operator(self) -> SpMVPlan:
        """Every rank's block as one :class:`~repro.kernels.plan.SpMVPlan`.

        The stacked matrix has the ranks' rows, rank after rank — the layout
        of :attr:`DistVector.values` — and its columns index one input
        buffer ``X = [every rank's x_local, rank after rank | every rank's
        halo, at HaloSchedule.halo_offsets]``: rank ``p``'s local column
        ``c`` becomes ``row_offset[p] + c`` and its halo column
        ``n_local + k`` becomes ``nrows + halo_offsets[p] + k``.  The remap
        keeps each row's stored order, so the compiled kernel sums every
        row exactly as it sums the rank's own block: the product is bitwise
        the per-rank one.

        Built lazily from the stacked arrays, whose row pointer and values
        the plan shares: every value is stored once.  The matrix holds the
        plan weakly; its users (each
        :class:`~repro.kernels.workspace.SolverWorkspace` that applies the
        matrix) hold it strongly.  The remapped indices cost 8 B per stored
        entry, so a matrix nothing applies any more gives them back: a
        filter sweep that keeps its 18 preconditioners would otherwise hold
        the indices of 37 operators (17 MiB) at once.
        """
        plan = self._operator() if self._operator is not None else None
        if plan is None:
            # imported with the first operator, not with the package (see SpMVPlan)
            from repro.kernels.plan import SpMVPlan

            nrows = self.shape[0]
            plan = SpMVPlan(CSRMatrix(
                (nrows, nrows + int(self.schedule.halo_offsets[-1])), self.indptr,
                self._operator_indices(), self._values, check=False,
            ))
            self._operator = weakref.ref(plan)
        return plan

    def _operator_indices(self) -> np.ndarray:
        """Every entry's column in :meth:`operator`'s input buffer."""
        nrows, halo_offsets = self.shape[0], self.schedule.halo_offsets
        offsets, cols = self._entries
        row_offsets = self._row_offsets()
        rank = np.repeat(np.arange(row_offsets.size - 1, dtype=np.int64), np.diff(offsets))
        indices = cols + row_offsets[rank]
        # rank p's local column c moves to row_offsets[p] + c, its halo
        # column n_local + k to nrows + halo_offsets[p] + k
        halo = np.flatnonzero(indices >= row_offsets[rank + 1])
        indices[halo] += (nrows + halo_offsets[:-1] - row_offsets[1:])[rank[halo]]
        return indices

    def split_blocks(self) -> list[tuple[CSRMatrix, CSRMatrix | None]]:
        """Per-rank ``(A_ll, A_lh)`` column split of the local blocks.

        ``A_ll`` (``n_local × n_local``) covers the owned columns and can be
        applied before any halo value arrives; ``A_lh``
        (``n_local × n_halo``, ``None`` when the rank has no halo) covers
        the halo columns.  ``A·x = A_ll·x_local + A_lh·x_halo`` — the
        decomposition behind communication/computation overlap.  Built once
        and cached on the matrix (which must not be mutated afterwards).

        Note the split changes floating-point summation *order* within each
        row, so overlapped products may differ from the fused ones in the
        last ulps — which is why overlap is opt-in.
        """
        if self._split is not None:
            return self._split
        blocks = []
        for lm in self.locals:
            if lm.n_halo == 0:
                blocks.append((lm.csr, None))
                continue
            rows, cols, vals = lm.csr.to_coo()
            local = cols < lm.n_local
            a_ll = CSRMatrix.from_coo(
                (lm.n_local, lm.n_local), rows[local], cols[local], vals[local]
            )
            a_lh = CSRMatrix.from_coo(
                (lm.n_local, lm.n_halo),
                rows[~local],
                cols[~local] - lm.n_local,
                vals[~local],
            )
            blocks.append((a_ll, a_lh))
        self._split = blocks
        return blocks

    def split_operator(self) -> tuple[SpMVPlan, SpMVPlan]:
        """:meth:`split_blocks` stacked, rank after rank, into two cached
        plans: ``A_ll`` over :attr:`DistVector.values` and ``A_lh`` over
        :meth:`operator`'s one-buffer halo.  Each is a mask of the stacked
        operator, whose rows keep their stored order (columns ascending, as
        :meth:`from_global` stores them), so each row sums alike."""
        if self._split_operator is None:
            from repro.kernels.plan import SpMVPlan

            op, nrows = self.operator().mat, self.shape[0]
            local = op.indices < nrows
            # a row's local entries before each of its entries: the local
            # block's row pointer at the row starts
            before = np.zeros(local.size + 1, dtype=np.int64)
            np.cumsum(local, out=before[1:])
            local_ptr = before[op.indptr]
            self._split_operator = tuple(
                SpMVPlan(CSRMatrix((nrows, ncols), indptr, op.indices[keep] - shift,
                                   op.data[keep], check=False))
                for keep, indptr, ncols, shift in (
                    (local, local_ptr, nrows, 0),
                    (~local, op.indptr - local_ptr, op.ncols - nrows, nrows))
            )
        return self._split_operator

    def spmv(
        self,
        x: DistVector,
        tracker: CommTracker | None = None,
        *,
        out: DistVector | None = None,
    ) -> DistVector:
        """Distributed ``y = A·x``: halo update then per-rank local SpMV.

        The allocating reference kernel: fresh arrays per call, counted in
        the ``kernels.allocs`` metric.  Solvers run the planned,
        allocation-free product instead
        (:meth:`repro.kernels.workspace.SolverWorkspace.spmv`).
        """
        if x.partition != self.partition:
            raise ShapeError("operand lives on a different partition")
        halos = self.schedule.update(x.parts, tracker)
        out_parts = []
        for p, lm in enumerate(self.locals):
            xin = np.concatenate([x.parts[p], halos[p]]) if lm.n_halo else x.parts[p]
            out_parts.append(lm.csr.spmv(xin))
        get_metrics().counter("kernels.allocs").inc(2 * self.partition.nparts)
        if out is not None:
            out.copy_from(DistVector(self.partition, out_parts))
            return out
        return DistVector(self.partition, out_parts)

    def __repr__(self) -> str:
        return (
            f"DistMatrix(shape={self.shape}, nparts={self.partition.nparts}, "
            f"nnz={self.nnz})"
        )

