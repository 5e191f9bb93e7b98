"""Structure-only sparsity patterns and symbolic pattern algebra.

FSAI-family preconditioners are defined by a *pattern* first and values
second: the pattern ``S`` fixes which entries of the inverse factor ``G`` may
be nonzero, then a small dense system per row fills in the values.  This
module provides the pattern type and the symbolic operations the paper uses:

* lower-triangular restriction (``G`` is lower triangular),
* pattern union (base pattern ∪ extension),
* symbolic powers ``pattern(Ã^N)`` ("sparse level" N patterns, Alg. 1 step 2),
* thresholding ``Ã`` = A with small entries dropped (Alg. 1 step 1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, SparseFormatError
from repro.sparse.csr import CSRMatrix, _entry_keys

__all__ = ["SparsityPattern", "threshold_pattern", "power_pattern"]


def _member(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``queries`` occur in the sorted array ``keys``."""
    if keys.size == 0:
        return np.zeros(queries.size, dtype=bool)
    pos = np.searchsorted(keys, queries)
    np.minimum(pos, keys.size - 1, out=pos)
    return keys[pos] == queries


class SparsityPattern:
    """An ``nrows × ncols`` boolean sparsity structure in CSR form.

    Rows hold sorted, unique column indices.  Instances are immutable by
    convention: all operations return new patterns.
    """

    __slots__ = ("shape", "indptr", "indices")

    def __init__(self, shape, indptr, indices, *, check: bool = True):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if check:
            self._validate()

    def _validate(self) -> None:
        nrows, ncols = self.shape
        if self.indptr.shape != (nrows + 1,) or self.indptr[0] != 0:
            raise SparseFormatError("bad indptr")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,):
            raise SparseFormatError("indices length mismatch")
        if nnz and (self.indices.min() < 0 or self.indices.max() >= ncols):
            raise SparseFormatError("column index out of range")
        keys = self._keys()
        bad = np.flatnonzero(keys[1:] <= keys[:-1])
        if bad.size:
            raise SparseFormatError(
                f"row {int(keys[bad[0] + 1]) // ncols} not strictly increasing"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, mat: CSRMatrix) -> "SparsityPattern":
        """Pattern of the stored entries of ``mat`` (explicit zeros included)."""
        return cls(mat.shape, mat.indptr.copy(), mat.indices.copy(), check=False)

    @classmethod
    def from_rows(cls, shape, rows_to_cols) -> "SparsityPattern":
        """Build from a sequence (len nrows) of per-row column iterables.

        Each row is sorted and deduplicated.
        """
        nrows, ncols = int(shape[0]), int(shape[1])
        if len(rows_to_cols) != nrows:
            raise ShapeError("need exactly one column list per row")
        parts = []
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        for i, cols in enumerate(rows_to_cols):
            arr = np.unique(np.asarray(list(cols), dtype=np.int64))
            if arr.size and (arr[0] < 0 or arr[-1] >= ncols):
                raise SparseFormatError(f"row {i}: column out of range")
            parts.append(arr)
            indptr[i + 1] = indptr[i] + arr.size
        indices = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return cls(shape, indptr, indices, check=False)

    @classmethod
    def identity(cls, n: int) -> "SparsityPattern":
        """The n×n diagonal pattern."""
        return cls(
            (n, n), np.arange(n + 1, dtype=np.int64), np.arange(n, dtype=np.int64), check=False
        )

    @classmethod
    def empty(cls, shape) -> "SparsityPattern":
        """A pattern with no entries."""
        return cls(
            shape,
            np.zeros(int(shape[0]) + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            check=False,
        )

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored positions."""
        return int(self.indptr[-1])

    @property
    def nrows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def ncols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    def row(self, i: int) -> np.ndarray:
        """Sorted column indices of row ``i`` (a view)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def row_nnz(self) -> np.ndarray:
        """Per-row entry counts."""
        return np.diff(self.indptr)

    def contains(
        self, i: int | np.ndarray, j: int | np.ndarray
    ) -> bool | np.ndarray:
        """Membership test for position ``(i, j)``.  Equal-length index arrays
        are tested in one pass and give a boolean mask."""
        if np.ndim(i) or np.ndim(j):
            queries = np.multiply(i, self.ncols, dtype=np.int64)
            queries += j
            return _member(queries, self._keys())
        row = self.row(i)
        pos = np.searchsorted(row, j)
        return bool(pos < row.size and row[pos] == j)

    # ------------------------------------------------------------------
    def _keys(self) -> np.ndarray:
        return _entry_keys(self.indptr, self.indices, self.ncols)

    def _select(self, keep: np.ndarray) -> "SparsityPattern":
        """The stored positions where the boolean mask ``keep`` is set."""
        kept_before = np.zeros(self.nnz + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        return SparsityPattern(
            self.shape, kept_before[self.indptr], self.indices[keep], check=False
        )

    def _check_same_shape(self, other: "SparsityPattern") -> None:
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")

    def union(self, other: "SparsityPattern") -> "SparsityPattern":
        """Set union of two patterns of identical shape."""
        self._check_same_shape(other)
        mine, theirs = self._keys(), other._keys()
        fresh = ~_member(theirs, mine)  # the entries only ``other`` has
        # merge the two sorted runs without re-sorting: each fresh entry goes
        # in front of the first entry of ``self`` above it
        at = np.searchsorted(mine, theirs[fresh])
        del mine, theirs
        indices = np.insert(self.indices, at, other.indices[fresh])
        fresh_before = np.zeros(other.nnz + 1, dtype=np.int64)
        np.cumsum(fresh, out=fresh_before[1:])
        return SparsityPattern(
            self.shape, self.indptr + fresh_before[other.indptr], indices, check=False
        )

    def intersection(self, other: "SparsityPattern") -> "SparsityPattern":
        """Set intersection of two patterns of identical shape."""
        self._check_same_shape(other)
        return self._select(_member(self._keys(), other._keys()))

    def difference(self, other: "SparsityPattern") -> "SparsityPattern":
        """Entries of ``self`` not present in ``other``."""
        self._check_same_shape(other)
        return self._select(~_member(self._keys(), other._keys()))

    def issubset(self, other: "SparsityPattern") -> bool:
        """True when every entry of ``self`` is in ``other``."""
        if self.shape != other.shape:
            return False
        return bool(_member(self._keys(), other._keys()).all())

    def lower(self, *, strict: bool = False) -> "SparsityPattern":
        """Lower-triangular restriction (``col <= row``, or ``<`` when strict)."""
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        return self._select(self.indices < rows if strict else self.indices <= rows)

    def with_diagonal(self) -> "SparsityPattern":
        """Union with the identity pattern (FSAI requires diagonal entries)."""
        n = min(self.shape)
        eye_indptr = np.minimum(np.arange(self.nrows + 1, dtype=np.int64), n)
        return self.union(SparsityPattern(self.shape, eye_indptr, np.arange(n), check=False))

    def transpose(self) -> "SparsityPattern":
        """The transposed pattern."""
        indptr = np.zeros(self.ncols + 1, dtype=np.int64)
        np.add.at(indptr, self.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        order = np.argsort(self.indices, kind="stable")
        return SparsityPattern(
            (self.ncols, self.nrows), indptr, rows[order], check=False
        )

    def symmetrized(self) -> "SparsityPattern":
        """Union of the pattern and its transpose (square patterns only)."""
        if self.nrows != self.ncols:
            raise ShapeError("symmetrized requires a square pattern")
        return self.union(self.transpose())

    def to_csr(self, values: np.ndarray | None = None) -> CSRMatrix:
        """Materialise as a CSR matrix; values default to 1.0 everywhere."""
        if values is None:
            values = np.ones(self.nnz, dtype=np.float64)
        return CSRMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), values, check=False
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsityPattern):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):
        raise TypeError("SparsityPattern is unhashable")

    def __repr__(self) -> str:
        return f"SparsityPattern(shape={self.shape}, nnz={self.nnz})"


# ----------------------------------------------------------------------
# module-level pattern constructors (Alg. 1 steps 1–2)
# ----------------------------------------------------------------------
def threshold_pattern(mat: CSRMatrix, threshold: float) -> SparsityPattern:
    """Pattern of ``Ã``: entries with ``|a_ij| > threshold·sqrt(|a_ii·a_jj|)``.

    The comparison is scale independent (relative to the diagonal, Chow
    2001).  Diagonal entries are always kept.
    """
    if mat.nrows != mat.ncols:
        raise ShapeError("threshold_pattern expects a square matrix")
    diag = np.abs(mat.diagonal())
    # guard zero diagonals: treat the scale as 1 so plain |a_ij| > t applies
    diag[diag == 0.0] = 1.0
    rows = np.repeat(np.arange(mat.nrows, dtype=np.int64), mat.row_nnz())
    scale = np.sqrt(diag[rows] * diag[mat.indices])
    keep = (np.abs(mat.data) > threshold * scale) | (rows == mat.indices)
    return SparsityPattern(mat.shape, mat.indptr, mat.indices, check=False)._select(keep)


def power_pattern(pat: SparsityPattern, level: int) -> SparsityPattern:
    """Symbolic pattern of ``pat^level`` (with the diagonal included).

    ``level=1`` returns the input union identity; higher levels perform
    repeated boolean sparse matrix products (the "sparse level" of the
    preconditioner in the paper).
    """
    if pat.nrows != pat.ncols:
        raise ShapeError("power_pattern expects a square pattern")
    if level < 1:
        raise ValueError("level must be >= 1")
    from repro.sparse.spgemm import symbolic_spgemm  # local import avoids cycle

    base = pat.with_diagonal()
    result = base
    for _ in range(level - 1):
        result = symbolic_spgemm(result, base)
    return result
