"""Symmetric permutations of sparse matrices.

``perm[k]`` = old index of new position ``k`` (the convention of
:func:`repro.order.rcm.rcm_ordering`).  A symmetric permutation
``P A Pᵀ`` preserves symmetry and positive definiteness, so reordered
systems can be solved with the same CG/FSAI pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.csr import CSRMatrix

__all__ = ["permute_symmetric", "inverse_permutation"]


def _check_perm(perm: np.ndarray, n: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (n,):
        raise ShapeError(f"permutation has length {perm.size}, expected {n}")
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise ShapeError("not a permutation of 0..n-1")
    return perm


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """``inv[old] = new`` for ``perm[new] = old``."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.int64)
    return inv


def permute_symmetric(mat: CSRMatrix, perm: np.ndarray) -> CSRMatrix:
    """Return ``P A Pᵀ``: new row/col ``k`` is old row/col ``perm[k]``."""
    if mat.nrows != mat.ncols:
        raise ShapeError("symmetric permutation needs a square matrix")
    perm = _check_perm(perm, mat.nrows)
    inv = inverse_permutation(perm)
    rows, cols, vals = mat.to_coo()
    return CSRMatrix.from_coo(mat.shape, inv[rows], inv[cols], vals)

