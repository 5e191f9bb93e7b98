"""FSAI: the Factorized Sparse Approximate Inverse preconditioner (Alg. 1).

Given an SPD matrix ``A`` and a lower-triangular pattern ``S`` (diagonal
included), FSAI computes the sparse lower-triangular ``G`` minimising
``‖I − GL‖_F`` over ``S``, where ``L`` is the (never formed) Cholesky factor
of ``A``.  Row ``i`` of ``G`` solves the small dense SPD system

    A[S_i, S_i] · y = e_m,     g_i = y / sqrt(y_m),

with ``m`` the position of the diagonal inside ``S_i`` (Kolotilina–Yeremin
1993; Chow 2001).  The scaling makes ``diag(G A Gᵀ) = 1``.

Rows are fully independent — the property that makes FSAI attractive on
parallel machines — and the setup exploits it as **batched row solves**:
rows are grouped by pattern size ``k``, each group's local Gram blocks are
gathered, a bounded batch at a time, into one stacked ``(m, k, k)`` tensor
(no Python-level per-row loop), and each batch is solved with one batched
``linalg.solve`` call (:class:`SetupOptions` selects the compute dtype).
The gather has two arms, chosen per batch from its shape alone: when the
batch's rows share few enough columns that the dense table ``A[cols, cols]``
is small, the table is scattered once from the CSR rows of ``cols`` and every
block entry is one ``take``; otherwise SciPy's compiled
``csr_sample_values`` reads every ``(row, col)`` entry, searching only inside
that row of ``A`` (the ``_sparsetools`` loops :mod:`repro.kernels.plan`
loads, without the ``scipy.sparse`` package).  Both copy the same stored
values and zeros, so the arm changes no bit of ``G``, except that SciPy scans
the row on batches of at most ``nnz(A) // 10`` entries and that scan reads a
stored ``-0.0`` as ``+0.0``.  ``A`` is validated as CSR first, so a
``check=False`` matrix with duplicate or unsorted columns in a row raises
:class:`~repro.errors.SparseFormatError` instead of being read wrongly.

Independence also makes the factor **incremental**: after entries are
dropped from a computed ``G`` only the rows that lost one need a new solve.
``compute_g_values(..., rows=changed, out=values)`` solves exactly those rows
into a caller-supplied value array and leaves every other entry untouched —
the "recompute after dropping" path of
:meth:`repro.core.precond.ExtensionWorkspace.finalize`.  The
one-small-system-per-row loop all of this replaced lives on in
``tests/test_fsai.py`` as the oracle the batched solves are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NotSPDError, ShapeError
from repro.instrument import get_metrics
from repro.kernels.plan import _sparsetools
from repro.sparse.csr import CSRMatrix, _check_out, _row_entry_positions
from repro.sparse.pattern import SparsityPattern, power_pattern, threshold_pattern

__all__ = [
    "FSAIOptions",
    "SetupOptions",
    "fsai_pattern",
    "compute_g_values",
]

# Tikhonov shift (relative to the submatrix diagonal) applied when a local
# system is numerically singular; mirrors production FSAI codes which guard
# against breakdowns on near-degenerate patterns.
_FALLBACK_SHIFT = 1e-12

#: Gram-block entries gathered and solved per batch (2 MiB of float64): bounds
#: the gather's temporaries, ~40 MiB each for one unsplit size-group of
#: ``poisson3d(24)``.  Every system is solved, and on failure shifted, on its
#: own, so the split changes no value.
_BATCH_ENTRIES = 1 << 18

#: The table arm of the Gram gather is taken when the dense table
#: ``A[cols, cols]`` over the batch's ``u`` distinct columns is at most this
#: many times the batch's ``m·k²`` block tensor — big, overlapping blocks.
#: Measured against the compiled sampler: 1.9× faster below ratio 2,
#: 1.4–1.6× at 2–4, 1.2–1.04× at 4–7, even at 7–8, 1.2–1.8× slower from 8 on
#: (docs/PERFORMANCE.md "The compiled search arm").
_TABLE_RATIO = 7

#: ... and at most this many entries (4 MiB of float64), which bounds peak
#: memory; a batch that fails only this cap is halved and asked again.
_TABLE_ENTRIES = 1 << 19

#: Compute dtypes the setup accepts (values are stored as float64 either way).
_SETUP_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class FSAIOptions:
    """Configuration of the baseline FSAI setup (Alg. 1).

    Attributes
    ----------
    threshold:
        Relative drop tolerance building ``Ã`` from ``A`` (step 1).  The
        paper's evaluation uses 0 — pattern of the lower triangle of ``A``.
    level:
        Sparse level ``N``: the pattern is ``lower(pattern(Ã^N))`` (step 2).
    """

    threshold: float = 0.0
    level: int = 1

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.level < 1:
            raise ValueError("level must be >= 1")


@dataclass(frozen=True)
class SetupOptions:
    """How the FSAI values are computed — the compute precision.

    The runtime knobs of the setup phase as one sub-config, carried by
    :class:`repro.core.precond.PrecondOptions` as ``setup=``.

    Attributes
    ----------
    dtype:
        Compute precision of the Gram gather and batched solve,
        ``"float64"`` (default) or ``"float32"``.  The returned ``G`` is
        always stored as float64 CSR; float32 trades last-bits accuracy for
        halved bandwidth during setup.
    """

    dtype: str = "float64"

    def __post_init__(self):
        if isinstance(self.dtype, type) and issubclass(self.dtype, np.generic):
            object.__setattr__(self, "dtype", np.dtype(self.dtype).name)
        if self.dtype not in _SETUP_DTYPES:
            raise ValueError(
                f"dtype must be one of {sorted(_SETUP_DTYPES)}, got {self.dtype!r}"
            )

    @property
    def np_dtype(self) -> np.dtype:
        """The compute dtype as a NumPy dtype object."""
        return np.dtype(_SETUP_DTYPES[self.dtype])


def fsai_pattern(mat: CSRMatrix, options: FSAIOptions = FSAIOptions()) -> SparsityPattern:
    """Steps 1–2 of Alg. 1: the a-priori lower-triangular pattern of ``G``."""
    if mat.nrows != mat.ncols:
        raise ShapeError("FSAI needs a square matrix")
    tilde = threshold_pattern(mat, options.threshold)
    powered = power_pattern(tilde, options.level) if options.level > 1 else tilde
    return powered.lower().with_diagonal()


def _check_pattern(mat: CSRMatrix, pattern: SparsityPattern) -> np.ndarray:
    """Shared structural validation; returns per-row pattern sizes."""
    n = mat.nrows
    if pattern.shape != (n, n):
        raise ShapeError("pattern shape does not match the matrix")
    row_sizes = pattern.row_nnz()
    if np.any(row_sizes == 0):
        raise ShapeError("pattern must include every diagonal entry")
    # lower triangular with the diagonal last in every row; the compiled
    # gather reads A at these indices unchecked
    diag_last = pattern.indices[pattern.indptr[1:] - 1]
    bad = diag_last != np.arange(n, dtype=np.int64)
    owner = np.repeat(np.arange(n, dtype=np.int64), row_sizes)
    bad[owner[(pattern.indices < 0) | (pattern.indices > owner)]] = True
    bad = np.flatnonzero(bad)
    if bad.size:
        raise ShapeError(
            f"row {int(bad[0])}: pattern is not lower triangular with diagonal"
        )
    return row_sizes


def _check_rows(rows, n: int) -> np.ndarray:
    """Validate a ``rows=`` selection; returns it sorted and deduplicated."""
    rows = np.asarray(rows)
    if not np.issubdtype(rows.dtype, np.integer):
        raise TypeError(f"rows must be an integer array, got dtype {rows.dtype}")
    if rows.ndim != 1:
        raise ShapeError(f"rows must be one-dimensional, got shape {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ShapeError(f"rows must lie in [0, {n})")
    selected = np.zeros(n, dtype=bool)
    selected[rows] = True
    return np.flatnonzero(selected)


def compute_g_values(
    mat: CSRMatrix,
    pattern: SparsityPattern,
    *,
    setup: SetupOptions | None = None,
    rows: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> CSRMatrix:
    """Step 3 of Alg. 1: fill in values of ``G`` on a lower-triangular pattern.

    ``pattern`` must be lower triangular with a full diagonal.  Rows are
    grouped by pattern size ``k``; each group's Gram blocks
    ``A[S_i, S_i]`` are gathered, a bounded batch at a time, into a stacked
    ``(m, k, k)`` tensor — read from a batch-local dense table when the
    batch's blocks overlap enough to keep it small, by one compiled
    ``csr_sample_values`` call otherwise — and solved with one batched
    ``linalg.solve`` call.  A batch holding a singular system is re-solved
    row by row; only rows that fail unshifted get a tiny diagonal shift.

    ``setup`` selects the compute dtype (:class:`SetupOptions`); the default
    computes in float64 and matches one dense solve per row to
    LAPACK rounding (within 1e-12 on well-conditioned inputs).

    ``rows`` (integer row ids, default all) restricts the solves to those
    rows and ``out`` (float64, one slot per pattern entry, default a new
    array) receives their values; entries of every other row are left as
    they are.  Every system is its own LAPACK call, so a row's values do not
    depend on which other rows are solved with it — bit for bit, except the
    sign of a zero when ``A`` stores a ``-0.0``, which the compiled gather
    keeps or drops by the batch's size.  The returned matrix
    stores ``out`` itself as its values.
    """
    setup = setup if setup is not None else SetupOptions()
    row_sizes = _check_pattern(mat, pattern)
    n = mat.nrows
    dtype = setup.np_dtype
    if out is None:
        out = np.empty(pattern.nnz, dtype=np.float64)
    else:
        _check_out(out, pattern.nnz)
    rows = np.arange(n, dtype=np.int64) if rows is None else _check_rows(rows, n)

    mat._validate()  # the compiled gather reads A as canonical CSR, unchecked
    sample = _sparsetools().csr_sample_values
    avals = mat.data.astype(dtype, copy=False)
    slot_of = np.full(max(n, mat.ncols), -1, dtype=np.int64)  # scratch of the table arm

    sizes = row_sizes[rows]
    groups = [(int(k), rows[sizes == k]) for k in np.flatnonzero(np.bincount(sizes))]
    pending = []
    for k, group in groups:
        step = max(1, _BATCH_ENTRIES // (k * k))
        pending.extend((k, group[lo : lo + step]) for lo in range(0, group.size, step))
    table_rows = 0
    while pending:
        k, batch = pending.pop()
        m = batch.size
        # stacked pattern indices of the batch: (m, k), diagonal last
        pos = pattern.indptr[batch][:, None] + np.arange(k, dtype=np.int64)
        idx = pattern.indices[pos]
        subs = None
        ratio_limit = _TABLE_RATIO * m * k * k
        limit = min(ratio_limit, _TABLE_ENTRIES)
        # the m diagonals are distinct columns, so u >= m: most batches of
        # small blocks fail the rule before their columns are even counted
        if m * m <= limit:
            cols = _distinct(idx, slot_of)
            if cols.size**2 <= limit:
                subs = _gather_table(mat, avals, idx, np.sort(cols), slot_of)
                table_rows += m
            elif cols.size**2 <= ratio_limit and m > 1:  # only the cap fails
                pending += [(k, batch[: m // 2]), (k, batch[m // 2 :])]
                continue
        if subs is None:
            # entry (b, r, c) of the stacked blocks is A[idx[b, r], idx[b, c]];
            # the sampler checks no length, so subs is sized by those arrays
            subs = np.empty((m, k, k), dtype=dtype)
            sample(n, mat.ncols, mat.indptr, mat.indices, avals, m * k * k,
                   np.repeat(idx, k), np.tile(idx, k), subs)
        rhs = np.zeros((m, k), dtype=dtype)
        rhs[:, k - 1] = 1.0
        try:
            ys = np.linalg.solve(subs, rhs[:, :, None])[:, :, 0]
            if not np.isfinite(ys).all() or (ys[:, k - 1] <= 0).any():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            ys = _solve_rows_guarded(subs.astype(np.float64, copy=False))
            ys = ys.astype(dtype, copy=False)
        ys = ys / np.sqrt(ys[:, k - 1])[:, None]
        out[pos] = ys

    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("fsai.batched_groups").inc(len(groups))
        metrics.counter("fsai.batched_rows").inc(rows.size)
        metrics.counter("fsai.gather.table_rows").inc(table_rows)
        metrics.counter("fsai.gather.search_rows").inc(rows.size - table_rows)
        metrics.gauge("fsai.batched_max_block").set(
            max((k for k, _ in groups), default=0)
        )
    return CSRMatrix(
        (n, n), pattern.indptr.copy(), pattern.indices.copy(), out, check=False
    )


def _distinct(values: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, in no particular order (several
    times faster than ``np.unique`` on a batch's indices): every occurrence
    stamps its own position into ``scratch`` at its value, and exactly one
    occurrence per value reads its own stamp back.  ``scratch`` is indexed by
    value, all -1 on entry and on return."""
    flat = values.ravel()
    stamp = np.arange(flat.size, dtype=np.int64)
    scratch[flat] = stamp
    found = flat[scratch[flat] == stamp]
    scratch[found] = -1
    return found


def _gather_table(
    mat: CSRMatrix,
    avals: np.ndarray,
    idx: np.ndarray,
    cols: np.ndarray,
    slot_of: np.ndarray,
) -> np.ndarray:
    """Gram blocks ``A[S_i, S_i]`` of one batch, read from the dense table
    ``A[cols, cols]``: ``idx`` is the batch's ``(m, k)`` pattern indices and
    ``cols`` their sorted distinct values.  The table is scattered once from
    the CSR rows of ``cols``; every block entry is then one ``take``.
    ``slot_of`` is a column-indexed scratch, all -1 on entry and on return.
    """
    u = cols.size
    slot_of[cols] = np.arange(u, dtype=np.int64)
    entries = _row_entry_positions(mat.indptr, cols)
    col_slot = slot_of[mat.indices[entries]]
    inside = col_slot >= 0
    row_slot = np.repeat(np.arange(u, dtype=np.int64), mat.indptr[cols + 1] - mat.indptr[cols])
    table = np.zeros(u * u, dtype=avals.dtype)
    table[(row_slot * u + col_slot)[inside]] = avals[entries[inside]]
    slot = slot_of[idx]
    slot_of[cols] = -1
    return table.take((slot * u)[:, :, None] + slot[:, None, :])


def _solve_rows_guarded(subs: np.ndarray) -> np.ndarray:
    """Per-row fallback (breakdown guard): each row as it is, then with
    escalating diagonal shifts — its values never depend on its batch."""
    m, k, _ = subs.shape
    out = np.empty((m, k), dtype=np.float64)
    rhs = np.zeros(k)
    rhs[k - 1] = 1.0
    for b in range(m):
        sub = subs[b]
        shift = _FALLBACK_SHIFT * max(1.0, float(np.abs(np.diag(sub)).max()))
        for scale in (0.0, *(10.0**attempt for attempt in range(8))):
            try:
                y = np.linalg.solve(sub + np.eye(k) * (shift * scale), rhs)
                if np.isfinite(y).all() and y[k - 1] > 0:
                    out[b] = y
                    break
            except np.linalg.LinAlgError:
                continue
        else:
            raise NotSPDError(
                "FSAI local system is not positive definite even after shifting; "
                "the input matrix is likely not SPD"
            )
    return out

