"""Compressed Sparse Row (CSR) matrix implemented from scratch on NumPy.

This is the storage format used throughout the library for the system matrix
``A`` and the FSAI factors ``G``/``Gᵀ``.  It deliberately does **not** wrap
:mod:`scipy.sparse`: the FSAI pattern-extension algorithms need direct,
documented control over ``indptr``/``indices``/``data`` and over invariants
such as *sorted, duplicate-free column indices per row*, which this class
enforces at construction time.

Design notes
------------
* All index arrays are ``int64``; values are ``float64``.  Mixing dtypes in
  hot SpMV loops costs conversions, so we normalise once at the boundary.
* Rows always hold **sorted, unique** column indices.  Algorithms that build
  rows out of order must go through :meth:`CSRMatrix.from_coo` or
  :func:`repro.sparse.pattern.SparsityPattern` builders which canonicalise.
* The SpMV kernel here is the NumPy reference, vectorised with
  ``numpy.add.reduceat`` — no Python-level per-row loop.  The solvers' hot
  loop runs a compiled CSR kernel on the same arrays
  (:class:`repro.kernels.plan.SpMVPlan`), checked against this one.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ShapeError, SparseFormatError

__all__ = ["CSRMatrix"]


def _as_index_array(values, name: str) -> np.ndarray:
    # C order: the compiled kernel would copy a strided view (np.nonzero's
    # columns are one) on every product
    arr = np.asarray(values, dtype=np.int64, order="C")
    if arr.ndim != 1:
        raise SparseFormatError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _entry_keys(indptr: np.ndarray, indices: np.ndarray, ncols: int) -> np.ndarray:
    """``row * ncols + col`` of every stored position of a CSR structure.

    With sorted, unique rows the keys are strictly increasing, so per-row set
    algebra becomes one pass over two sorted int64 arrays.  Built in place:
    one nnz-long array, no intermediates.
    """
    keys = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    keys *= ncols
    keys += indices
    return keys


def _row_entry_positions(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the stored entries of ``rows``, row after row, in the
    ``indices`` / ``data`` arrays that ``indptr`` delimits."""
    lens = indptr[rows + 1] - indptr[rows]
    pos = np.repeat(indptr[rows] - (np.cumsum(lens) - lens), lens)
    pos += np.arange(pos.size, dtype=np.int64)
    return pos


def _check_out(out: np.ndarray, n: int, label: str = "out") -> None:
    """Validate a user-supplied vector: float64 ndarray of length n."""
    if not isinstance(out, np.ndarray):
        raise TypeError(f"{label} must be a numpy array, got {type(out).__name__}")
    if out.dtype != np.float64:
        raise TypeError(f"{label} must have dtype float64, got {out.dtype}")
    if out.shape != (n,):
        raise ShapeError(f"{label} has shape {out.shape}, expected ({n},)")


class CSRMatrix:
    """A real-valued sparse matrix in CSR format.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    indptr:
        Row pointer array of length ``nrows + 1``.
    indices:
        Column indices, sorted and unique within each row.
    data:
        Nonzero values aligned with ``indices``.
    check:
        When ``True`` (default) validate every structural invariant.  Internal
        callers that construct provably-valid arrays pass ``False`` to skip
        the O(nnz) validation cost.
    """

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(self, shape, indptr, indices, data, *, check: bool = True):
        nrows, ncols = int(shape[0]), int(shape[1])
        self.shape = (nrows, ncols)
        self.indptr = _as_index_array(indptr, "indptr")
        self.indices = _as_index_array(indices, "indices")
        self.data = np.asarray(data, dtype=np.float64)
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls, shape, rows, cols, vals, *,
        sum_duplicates: bool = True, canonical: bool = False,
    ) -> "CSRMatrix":
        """Build from coordinate triplets.

        Duplicate ``(row, col)`` entries are summed (``sum_duplicates=True``)
        or rejected.

        ``canonical=True`` asserts the triplets are already in lexicographic
        ``(row, col)`` order with no duplicates — e.g. the output of
        ``np.nonzero`` on a dense array — and skips the O(nnz log nnz)
        sort/dedup pass.  The resulting structure is still validated cheaply
        via the CSR invariant check.
        """
        nrows, ncols = int(shape[0]), int(shape[1])
        rows = _as_index_array(rows, "rows")
        cols = _as_index_array(cols, "cols")
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ShapeError("rows, cols and vals must have identical length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise SparseFormatError("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise SparseFormatError("column index out of range")
        if canonical:
            counts = np.bincount(rows, minlength=nrows) if rows.size else \
                np.zeros(nrows, dtype=np.int64)
            indptr = np.zeros(nrows + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            # check=True here is the cheap per-row ordering validation that
            # catches a wrong canonical= promise instead of corrupting state
            return cls((nrows, ncols), indptr, cols, vals, check=True)
        # lexicographic sort by (row, col)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if dup.any():
                if not sum_duplicates:
                    raise SparseFormatError("duplicate (row, col) entries")
                # segment-sum duplicates: keep first of each run, add the rest
                keep = np.concatenate(([True], ~dup))
                seg_ids = np.cumsum(keep) - 1
                summed = np.zeros(int(seg_ids[-1]) + 1, dtype=np.float64)
                np.add.at(summed, seg_ids, vals)
                rows, cols, vals = rows[keep], cols[keep], summed
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls((nrows, ncols), indptr, cols, vals, check=False)

    @classmethod
    def from_dense(cls, dense, *, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense 2-D array, dropping entries with ``|v| <= tol``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError("from_dense expects a 2-D array")
        mask = np.abs(dense) > tol
        # np.nonzero walks row-major: triplets come out canonically ordered
        rows, cols = np.nonzero(mask)
        return cls.from_coo(dense.shape, rows, cols, dense[rows, cols], canonical=True)

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The n×n identity matrix."""
        idx = np.arange(n, dtype=np.int64)
        return cls((n, n), np.arange(n + 1, dtype=np.int64), idx, np.ones(n), check=False)

    @classmethod
    def zeros(cls, shape) -> "CSRMatrix":
        """An all-zero matrix with no stored entries."""
        nrows = int(shape[0])
        return cls(
            shape,
            np.zeros(nrows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            check=False,
        )

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        nrows, ncols = self.shape
        if nrows < 0 or ncols < 0:
            raise SparseFormatError(f"negative shape {self.shape}")
        if self.indptr.shape != (nrows + 1,):
            raise SparseFormatError(
                f"indptr length {self.indptr.size} != nrows+1 = {nrows + 1}"
            )
        if self.indptr[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise SparseFormatError("indices/data length does not match indptr[-1]")
        if nnz:
            if self.indices.min() < 0 or self.indices.max() >= ncols:
                raise SparseFormatError("column index out of range")
            keys = _entry_keys(self.indptr, self.indices, ncols)
            bad = np.flatnonzero(keys[1:] <= keys[:-1])
            if bad.size:
                raise SparseFormatError(
                    f"row {int(keys[bad[0] + 1]) // ncols}: column indices must be"
                    " strictly increasing per row"
                )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries (including explicit zeros)."""
        return int(self.indptr[-1])

    @property
    def nrows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def ncols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` (views, do not mutate)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts as an ``int64`` array of length ``nrows``."""
        return np.diff(self.indptr)

    def iter_rows(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(i, cols, vals)`` for each row."""
        for i in range(self.nrows):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            yield i, self.indices[lo:hi], self.data[lo:hi]

    def copy(self) -> "CSRMatrix":
        """Deep copy (independent arrays)."""
        return CSRMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data.copy(), check=False
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense 2-D array."""
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        out[rows, self.indices] = self.data
        return out

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate triplets ``(rows, cols, vals)`` (copies)."""
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        return rows, self.indices.copy(), self.data.copy()

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sparse matrix–vector product ``y = A @ x``.

        Vectorised with ``add.reduceat`` over the gathered products — the
        irregular gather ``x[indices]`` is the cache-critical access the FSAI
        extension algorithms optimise.

        ``out`` must be a float64 vector of length ``nrows``; it may alias
        ``x`` (the gathered products are materialised before ``out`` is
        written).  This is the NumPy reference; the solvers (BSP and SPMD)
        run the same product through :class:`repro.kernels.plan.SpMVPlan`
        (a compiled CSR loop on these arrays, equal to this kernel to
        rounding, not bitwise).  The loop sums a row strictly left to
        right, ``((p0 + p1) + p2) + …``; ``reduceat`` seeds the row's sum
        with ``p0`` and adds the reduction of ``p1 … pk``, which NumPy forms
        itself (left to right up to eight products, in unrolled partial
        sums beyond), ``p0 + ((p1 + p2) + …)``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ShapeError(f"x has shape {x.shape}, expected ({self.ncols},)")
        if out is not None:
            _check_out(out, self.nrows)
        if self.nnz == 0:
            if out is None:
                return np.zeros(self.nrows, dtype=np.float64)
            out[:] = 0.0
            return out
        # gathered products come first so that out= may alias x
        prod = self.data * x[self.indices]
        if out is None:
            out = np.zeros(self.nrows, dtype=np.float64)
        else:
            out[:] = 0.0
        # reduceat over the starts of nonempty rows only: those starts are
        # strictly increasing and < nnz, so each segment ends exactly at the
        # next nonempty row (or the end of prod).
        starts = self.indptr[:-1]
        nonempty = self.indptr[1:] > starts
        if nonempty.any():
            out[nonempty] = np.add.reduceat(prod, starts[nonempty])
        return out

    def spmv_transpose(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``y = Aᵀ @ x`` without materialising the transpose.

        ``out`` must be a float64 vector of length ``ncols``; it may alias
        ``x``.  The NumPy reference (an ``add.at`` scatter);
        :meth:`repro.kernels.plan.SpMVPlan.spmv_t` evaluates the same product
        in a compiled loop on these arrays, equal to rounding.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.nrows,):
            raise ShapeError(f"x has shape {x.shape}, expected ({self.nrows},)")
        if out is not None:
            _check_out(out, self.ncols)
        if self.nnz == 0:
            if out is None:
                return np.zeros(self.ncols, dtype=np.float64)
            out[:] = 0.0
            return out
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        prod = self.data * x[rows]  # before touching out: out= may alias x
        if out is None:
            out = np.zeros(self.ncols, dtype=np.float64)
        else:
            out[:] = 0.0
        np.add.at(out, self.indices, prod)
        return out

    def transpose(self) -> "CSRMatrix":
        """Return ``Aᵀ`` as a new CSR matrix (counting-sort transpose)."""
        # SciPy's compiled loops, loaded with the first transpose, not with
        # the package (see repro.kernels.plan)
        from repro.kernels.plan import _sparsetools

        nrows, ncols = self.shape
        t_indptr = np.empty(ncols + 1, dtype=np.int64)
        t_indices = np.empty(self.nnz, dtype=np.int64)
        t_data = np.empty(self.nnz, dtype=np.float64)
        # stable counting placement keeps per-row order => sorted columns
        _sparsetools().csr_tocsc(nrows, ncols, self.indptr, self.indices, self.data,
                                 t_indptr, t_indices, t_data)
        return CSRMatrix((ncols, nrows), t_indptr, t_indices, t_data, check=False)

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (missing entries are 0)."""
        diag = np.zeros(min(self.shape), dtype=np.float64)
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        on_diag = np.flatnonzero(rows == self.indices)
        diag[self.indices[on_diag]] = self.data[on_diag]
        return diag

    def extract_lower(self, *, strict: bool = False) -> "CSRMatrix":
        """Lower-triangular part (``col <= row``; ``col < row`` when strict)."""
        return self._triangular(lower=True, strict=strict)

    def extract_upper(self, *, strict: bool = False) -> "CSRMatrix":
        """Upper-triangular part (``col >= row``; ``col > row`` when strict)."""
        return self._triangular(lower=False, strict=strict)

    def _triangular(self, *, lower: bool, strict: bool) -> "CSRMatrix":
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        if lower:
            return self._select(self.indices < rows if strict else self.indices <= rows)
        return self._select(self.indices > rows if strict else self.indices >= rows)

    def _select(self, keep: np.ndarray) -> "CSRMatrix":
        """The stored entries where the boolean mask ``keep`` is set."""
        kept_before = np.zeros(self.nnz + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        return CSRMatrix(
            self.shape, kept_before[self.indptr], self.indices[keep], self.data[keep],
            check=False,
        )

    def submatrix(self, row_ids: np.ndarray, col_ids: np.ndarray) -> np.ndarray:
        """Dense restriction ``A[row_ids][:, col_ids]``.

        Used for the per-row FSAI Frobenius systems, which are small and
        dense-solved; returns a dense array by design.
        """
        row_ids = _as_index_array(row_ids, "row_ids")
        col_ids = _as_index_array(col_ids, "col_ids")
        out = np.zeros((row_ids.size, col_ids.size), dtype=np.float64)
        # col_ids are sorted in all internal callers; support unsorted anyway.
        sorter = np.argsort(col_ids, kind="stable")
        sorted_cols = col_ids[sorter]
        for r, i in enumerate(row_ids):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            cols = self.indices[lo:hi]
            vals = self.data[lo:hi]
            pos = np.searchsorted(sorted_cols, cols)
            pos = np.minimum(pos, sorted_cols.size - 1) if sorted_cols.size else pos
            if sorted_cols.size == 0:
                continue
            hit = sorted_cols[pos] == cols
            out[r, sorter[pos[hit]]] = vals[hit]
        return out

    def scale_rows(self, scale: np.ndarray) -> "CSRMatrix":
        """Return ``diag(scale) @ A``."""
        scale = np.asarray(scale, dtype=np.float64)
        if scale.shape != (self.nrows,):
            raise ShapeError("scale must have one entry per row")
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        return CSRMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data * scale[rows],
            check=False,
        )

    def drop_entries(self, mask: np.ndarray) -> "CSRMatrix":
        """Return a copy without the entries where ``mask`` is True.

        ``mask`` is aligned with ``self.data``.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.data.shape:
            raise ShapeError("mask must align with stored entries")
        return self._select(~mask)

    # ------------------------------------------------------------------
    # operators & comparison
    # ------------------------------------------------------------------
    def __add__(self, other):
        """Entry-wise sum of two matrices of identical shape."""
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")
        r1, c1, v1 = self.to_coo()
        r2, c2, v2 = other.to_coo()
        return CSRMatrix.from_coo(
            self.shape,
            np.concatenate([r1, r2]),
            np.concatenate([c1, c2]),
            np.concatenate([v1, v2]),
        )

    def __sub__(self, other):
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return self + (other * -1.0)

    def __mul__(self, scalar):
        """Scalar multiple (``A * 2.0``)."""
        if not isinstance(scalar, (int, float, np.integer, np.floating)):
            return NotImplemented
        return CSRMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data * float(scalar),
            check=False,
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, np.ndarray) and other.ndim == 1:
            return self.spmv(other)
        if isinstance(other, CSRMatrix):
            from repro.sparse.spgemm import spgemm  # local import avoids cycle

            return spgemm(self, other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):  # mutable arrays: not hashable
        raise TypeError("CSRMatrix is unhashable")

    def allclose(self, other: "CSRMatrix", *, rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Structural equality plus numerically-close values."""
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.data, other.data, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
