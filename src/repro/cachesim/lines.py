"""Cache-line geometry helpers.

The pattern-extension algorithms reason about which entries of the SpMV
multiplying vector ``x`` share a cache line.  With 8-byte doubles, a line of
``line_bytes`` holds ``line_bytes // 8`` consecutive values; the vector is
assumed line-aligned at element 0 (the allocation behaviour the paper's C
implementation relies on).
"""

from __future__ import annotations

import numpy as np

__all__ = ["doubles_per_line", "line_ids"]

_DOUBLE_BYTES = 8


def doubles_per_line(line_bytes: int) -> int:
    """Number of float64 values per cache line (≥1)."""
    if line_bytes < _DOUBLE_BYTES or line_bytes % _DOUBLE_BYTES:
        raise ValueError(f"line_bytes must be a positive multiple of 8, got {line_bytes}")
    return line_bytes // _DOUBLE_BYTES


def line_ids(cols: np.ndarray, line_bytes: int) -> np.ndarray:
    """Cache-line id containing ``x[col]``, for every ``col`` of an index array."""
    return np.asarray(cols, dtype=np.int64) // doubles_per_line(line_bytes)
