"""Sparse-matrix substrate: CSR storage, pattern algebra, SpGEMM, I/O.

This package is the from-scratch sparse kernel library the FSAI
preconditioners are built on.  Public surface:

* :class:`CSRMatrix` — the numeric sparse matrix type.
* :class:`SparsityPattern` — structure-only patterns with set algebra.
* :func:`threshold_pattern`, :func:`power_pattern` — Alg. 1 pattern builders.
* :func:`symbolic_spgemm`, :func:`spgemm` — sparse matrix products.
* :func:`read_matrix_market`, :func:`write_matrix_market` — ``.mtx`` I/O.
* BLAS-1 helpers (:func:`axpy`, :func:`dot`, ...) and a symmetry check.
"""

from repro.sparse.csr import CSRMatrix
from repro.sparse.io import read_matrix_market, write_matrix_market
from repro.sparse.ops import (
    axpy,
    dot,
    is_symmetric,
    max_norm,
    norm2,
    xpay,
)
from repro.sparse.pattern import SparsityPattern, power_pattern, threshold_pattern
from repro.sparse.spgemm import spgemm, symbolic_spgemm

__all__ = [
    "CSRMatrix",
    "SparsityPattern",
    "threshold_pattern",
    "power_pattern",
    "spgemm",
    "symbolic_spgemm",
    "read_matrix_market",
    "write_matrix_market",
    "axpy",
    "xpay",
    "dot",
    "norm2",
    "max_norm",
    "is_symmetric",
]
