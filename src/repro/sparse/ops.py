"""Dense-vector BLAS-1 helpers and sparse utility operations.

The CG solver is built on exactly three kernels (paper §2.1): SpMV, AXPY and
dot products.  SpMV lives on :class:`~repro.sparse.csr.CSRMatrix`; the vector
kernels live here so the distributed layer can route them through communication
tracking without touching NumPy call sites everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.csr import CSRMatrix

__all__ = [
    "axpy",
    "xpay",
    "dot",
    "norm2",
    "max_norm",
    "is_symmetric",
]


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """In-place ``y += alpha * x``; returns ``y``."""
    if x.shape != y.shape:
        raise ShapeError("axpy operands must have identical shape")
    y += alpha * x
    return y


def xpay(x: np.ndarray, alpha: float, y: np.ndarray) -> np.ndarray:
    """In-place ``y = x + alpha * y`` (the CG direction update); returns ``y``."""
    if x.shape != y.shape:
        raise ShapeError("xpay operands must have identical shape")
    y *= alpha
    y += x
    return y


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """Dense dot product (float result)."""
    if x.shape != y.shape:
        raise ShapeError("dot operands must have identical shape")
    return float(np.dot(x, y))


def norm2(x: np.ndarray) -> float:
    """Euclidean norm."""
    return float(np.linalg.norm(x))


def max_norm(mat: CSRMatrix) -> float:
    """Largest absolute stored entry (the paper normalises RHS to this)."""
    if mat.nnz == 0:
        return 0.0
    return float(np.abs(mat.data).max())


def is_symmetric(mat: CSRMatrix, *, rtol: float = 1e-10, atol: float = 1e-12) -> bool:
    """Check ``A == Aᵀ`` structurally and numerically."""
    if mat.nrows != mat.ncols:
        return False
    return mat.allclose(mat.transpose(), rtol=rtol, atol=atol)

