"""SpMV kernel plans — one compiled CSR loop, validated once, no allocation.

The paper's premise is that preconditioner application is bound by memory
traffic: an extension entry is nearly free because its operand shares an
already-fetched cache line.  That only shows in wall clock when a stored
entry costs a multiply-add in a compiled loop rather than three NumPy
dispatches, so :class:`SpMVPlan` runs SciPy's CSR kernel directly on the
:class:`~repro.sparse.csr.CSRMatrix`'s own ``indptr``/``indices``/``data``
arrays (no copy, no int32 narrowing, no stored transpose):

* :meth:`SpMVPlan.spmv` is ``out.fill(0.0)`` +
  ``csr_matvec(nrows, ncols, indptr, indices, data, x, out)``;
* :meth:`SpMVPlan.spmv_t` hands the same arrays to ``csc_matvec`` with the
  dimensions swapped — the CSR arrays of ``A`` are the CSC arrays of ``Aᵀ``.

The routines are the private ``scipy.sparse._sparsetools`` ones, not
``csr_array @ x``: the public product allocates its result on every call,
which would break the zero-hot-loop-allocation gate
(``scripts/check_bench.py kernels``), and measured 5–17 % slower.  Their contract
(accumulate into ``y``, int64 indices accepted, float32 ``y`` rejected) is
pinned by name in ``tests/test_kernels.py``.

The compiled loop does no bounds checking and reads ``x`` while it writes
``out``, so the plan validates the structure once at construction
(:class:`~repro.errors.ShapeError` on a malformed matrix — blocks built with
``check=False`` included) and every call rejects a non-float64 operand
(SciPy would silently allocate an upcast copy) and an ``out`` that may share
memory with ``x``.  Rows are summed left to right in stored order, which
agrees with the NumPy reference :meth:`CSRMatrix.spmv` to rounding, not
bitwise.

A plan holds no scratch, so it may be applied from many threads at once
(each with its own ``out``); the matrix must not be mutated afterwards.
``calls``/``calls_t`` are plain integers and may undercount under
concurrency — instrumentation, not accounting.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.csr import CSRMatrix, _check_out

__all__ = ["SpMVPlan"]


class SpMVPlan:
    """A validated :class:`CSRMatrix` bound to the compiled SpMV kernel.

    ``calls`` / ``calls_t`` count the forward/transpose products executed
    (object-local so the hot path never touches a registry).
    """

    __slots__ = (
        "mat", "nrows", "ncols", "nnz", "_csr", "_matvec", "_matvec_t", "calls", "calls_t",
    )

    def __init__(self, mat: CSRMatrix):
        # imported with the first plan, not with the package: scipy.sparse is
        # ~20 MiB resident, +21 % on an SPMD-engine run, which applies no plan
        from scipy.sparse._sparsetools import csc_matvec, csr_matvec

        indptr, indices, data = mat.indptr, mat.indices, mat.data
        nrows, ncols = mat.shape
        if indptr.dtype != indices.dtype or indptr.dtype not in (np.int32, np.int64):
            raise ShapeError(
                f"indptr ({indptr.dtype}) and indices ({indices.dtype}) must "
                "share one of int32/int64"
            )
        if data.dtype != np.float64 or not data.flags.c_contiguous:
            raise ShapeError("data must be a C-contiguous float64 array")
        if (
            indptr.shape != (nrows + 1,)
            or indptr[0] != 0
            or indices.shape != (indptr[-1],)
            or data.shape != indices.shape
            or (np.diff(indptr) < 0).any()
        ):
            raise ShapeError("indptr/indices/data are not a consistent CSR structure")
        if indices.size and not 0 <= indices.min() <= indices.max() < ncols:
            raise ShapeError(f"column index outside [0, {ncols})")
        self.mat = mat
        self.nrows, self.ncols, self.nnz = nrows, ncols, indices.size
        self._csr = (indptr, indices, data)
        self._matvec, self._matvec_t = csr_matvec, csc_matvec
        self.calls = 0
        self.calls_t = 0

    def _operands(self, x, out, n_in: int, n_out: int) -> np.ndarray:
        _check_out(x, n_in, "x")
        if out is None:
            return np.empty(n_out, dtype=np.float64)
        _check_out(out, n_out)
        if np.may_share_memory(x, out):
            raise ValueError("out must not share memory with x")
        return out

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x``; allocation-free when ``out`` is given."""
        out = self._operands(x, out, self.ncols, self.nrows)
        self.calls += 1
        out.fill(0.0)
        self._matvec(self.nrows, self.ncols, *self._csr, x, out)
        return out

    def spmv_t(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = Aᵀ @ x``; allocation-free when ``out`` is given."""
        out = self._operands(x, out, self.nrows, self.ncols)
        self.calls_t += 1
        out.fill(0.0)
        self._matvec_t(self.ncols, self.nrows, *self._csr, x, out)
        return out

    def __repr__(self) -> str:
        return (
            f"SpMVPlan(shape=({self.nrows}, {self.ncols}), nnz={self.nnz}, "
            f"calls={self.calls}+{self.calls_t}T)"
        )
