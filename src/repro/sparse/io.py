"""Minimal MatrixMarket (``.mtx``) reader/writer.

Supports the subset used by the SuiteSparse collection matrices the paper
evaluates: ``matrix coordinate real {general|symmetric}`` and
``matrix coordinate pattern {general|symmetric}`` (pattern entries get value
1.0).  Symmetric files are expanded to full storage on read, which is what
the solver expects.
"""

from __future__ import annotations

import gzip
import math
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.errors import SparseFormatError
from repro.sparse.csr import CSRMatrix

__all__ = ["read_matrix_market", "write_matrix_market"]


def _open_text(path: Path, mode: str) -> TextIO:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")  # type: ignore[return-value]
    return open(path, mode)


def read_matrix_market(path) -> CSRMatrix:
    """Read a MatrixMarket coordinate file into a :class:`CSRMatrix`.

    A malformed file — a bad banner or size line, an entry with missing,
    non-numeric or non-finite tokens or an index out of range, a
    ``symmetric`` banner on a non-square size, too few entries — raises
    :class:`SparseFormatError` naming the file and the 1-based line.
    """
    path = Path(path)
    with _open_text(path, "r") as fh:
        lines = enumerate(fh, start=1)
        lineno = 1

        def fail(message: str, at: int | None = None) -> SparseFormatError:
            return SparseFormatError(f"{path}: line {at or lineno}: {message}")

        header = next(lines, (1, ""))[1]
        if not header.startswith("%%MatrixMarket"):
            raise fail("missing MatrixMarket banner")
        tokens = header.strip().split()
        if len(tokens) < 5:
            raise fail(f"malformed banner: {header!r}")
        _, obj, fmt, field, symmetry = tokens[:5]
        obj, fmt = obj.lower(), fmt.lower()
        field, symmetry = field.lower(), symmetry.lower()
        if obj != "matrix" or fmt != "coordinate":
            raise fail("only coordinate matrices supported")
        if field not in ("real", "integer", "pattern"):
            raise fail(f"unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise fail(f"unsupported symmetry {symmetry!r}")

        for lineno, line in lines:
            if line.strip() and not line.startswith("%"):
                break
        else:
            raise fail("the file ends before its size line", lineno + 1)
        try:
            nrows, ncols, nnz = (int(t) for t in line.split())
        except ValueError as exc:
            raise fail(f"bad size line {line!r}") from exc
        if min(nrows, ncols, nnz) < 0:
            raise fail(f"negative size in {line!r}")
        if symmetry == "symmetric" and nrows != ncols:
            raise fail(f"a symmetric matrix must be square, not {nrows} x {ncols}")

        width = 2 if field == "pattern" else 3
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for k in range(nnz):
            lineno, line = next(lines, (lineno + 1, ""))
            parts = line.split()
            if len(parts) < width:
                raise fail(f"truncated at entry {k + 1} of {nnz}: expected "
                           f"{width} tokens, got {line.strip()!r}")
            try:
                row, col = int(parts[0]), int(parts[1])
                value = float(parts[2]) if width == 3 else 1.0
            except ValueError as exc:
                raise fail(f"entry {k + 1} is not numeric: {line.strip()!r}") from exc
            if not (1 <= row <= nrows and 1 <= col <= ncols):
                raise fail(f"entry {k + 1} lies outside the {nrows} x {ncols} matrix")
            if not math.isfinite(value):
                raise fail(f"entry {k + 1} has the non-finite value {parts[2]!r}")
            rows[k], cols[k], vals[k] = row - 1, col - 1, value

    if symmetry == "symmetric":
        off = rows != cols
        mirror_rows, mirror_cols, mirror_vals = cols[off], rows[off], vals[off]
        rows = np.concatenate([rows, mirror_rows])
        cols = np.concatenate([cols, mirror_cols])
        vals = np.concatenate([vals, mirror_vals])
    return CSRMatrix.from_coo((nrows, ncols), rows, cols, vals)


def write_matrix_market(path, mat: CSRMatrix, *, symmetric: bool = False) -> None:
    """Write a :class:`CSRMatrix` as a MatrixMarket coordinate file.

    With ``symmetric=True`` only the lower triangle is written and the file
    is marked ``symmetric`` (the matrix must actually be symmetric; this is
    not verified here for speed).
    """
    path = Path(path)
    out = mat.extract_lower() if symmetric else mat
    rows, cols, vals = out.to_coo()
    with _open_text(path, "w") as fh:
        kind = "symmetric" if symmetric else "general"
        fh.write(f"%%MatrixMarket matrix coordinate real {kind}\n")
        fh.write(f"{mat.nrows} {mat.ncols} {out.nnz}\n")
        for r, c, v in zip(rows, cols, vals):
            fh.write(f"{r + 1} {c + 1} {v:.17g}\n")
