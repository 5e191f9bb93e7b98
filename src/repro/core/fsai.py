"""FSAI: the Factorized Sparse Approximate Inverse preconditioner (Alg. 1).

Given an SPD matrix ``A`` and a lower-triangular pattern ``S`` (diagonal
included), FSAI computes the sparse lower-triangular ``G`` minimising
``‖I − GL‖_F`` over ``S``, where ``L`` is the (never formed) Cholesky factor
of ``A``.  Row ``i`` of ``G`` solves the small dense SPD system

    A[S_i, S_i] · y = e_m,     g_i = y / sqrt(y_m),

with ``m`` the position of the diagonal inside ``S_i`` (Kolotilina–Yeremin
1993; Chow 2001).  The scaling makes ``diag(G A Gᵀ) = 1``.

Rows are independent systems — the property that makes FSAI attractive on
parallel machines — but not unrelated ones: with ``A[S_i, S_i] = L Lᵀ``,
``g_i`` is the last row of ``L⁻¹``, so rows whose patterns are leading
prefixes of one another share one Gram block and one factorization.  The
setup exploits both as **batched supernode solves**.  A supernode is a run
of consecutive rows ``h − c + 1 … h`` in which each row's pattern is the
next one's without its diagonal (``S_{i+1} = S_i ∪ {i+1}``); the cache-line
extension of Alg. 2 makes such runs common.  Supernodes are grouped by
``(k, c)`` — the head's pattern size and the run's length — and each
group's Gram blocks ``A[S_h, S_h]`` are gathered, a bounded batch at a time,
into one stacked ``(m, k, k)`` tensor (no Python-level per-row loop), then
factored together (:class:`SetupOptions` selects the compute dtype).
The gather has two arms, chosen per batch from its shape alone: when the
batch's rows share few enough columns that the dense table ``A[cols, cols]``
is small, the table is scattered once from the CSR rows of ``cols`` and every
block entry is one ``take``; otherwise SciPy's compiled
``csr_sample_values`` reads every ``(row, col)`` entry, searching only inside
that row of ``A`` (the ``_sparsetools`` loops :mod:`repro.kernels.plan`
loads, without the ``scipy.sparse`` package).  Both copy the same stored
values and zeros, so the arm changes no bit of ``G``, except that SciPy scans
the row on batches of at most a tenth of the entries of the rows it is
handed and that scan reads a stored ``-0.0`` as ``+0.0``.  ``A`` is
validated as CSR first, so a ``check=False`` matrix with duplicate or
unsorted columns in a row raises :class:`~repro.errors.SparseFormatError`
instead of being read wrongly.

The bit contract: a row's values are a function of ``A``, the pattern and
the compute dtype alone.  Supernodes come from the pattern, every block is
its own LAPACK call and every batched step treats each block alone, so
neither the batch split, nor the gather arm, nor which rows a call selects
changes a bit.  A row does depend on the rows it nests with: the same row on
a pattern whose neighbours nest differently may differ in the last bits
(within 1e-12 on well-conditioned inputs).

Independence also makes the factor **incremental**: after entries are
dropped from a computed ``G`` only the rows that lost one need a new solve.
``compute_g_values(..., rows=changed, out=values)`` writes exactly those rows
into a caller-supplied value array and leaves every other entry untouched —
the "recompute after dropping" path of
:meth:`repro.core.precond.ExtensionWorkspace.finalize`.  The
one-small-system-per-row loop all of this replaced lives on in
``tests/test_fsai.py`` as the oracle the batched solves are checked against,
beside a check of the Kolotilina–Yeremin conditions row by row.
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
#: ``poisson3d(24)``.  Every supernode is factored, and on failure shifted, on
#: its own, so the split changes no value.
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
    """Validate a ``rows=`` selection; returns it as a mask over the rows."""
    rows = np.asarray(rows)
    if not np.issubdtype(rows.dtype, np.integer):
        raise TypeError(f"rows must be an integer array, got dtype {rows.dtype}")
    if rows.ndim != 1:
        raise ShapeError(f"rows must be one-dimensional, got shape {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ShapeError(f"rows must lie in [0, {n})")
    selected = np.zeros(n, dtype=bool)
    selected[rows] = True
    return selected


def compute_g_values(
    mat: CSRMatrix,
    pattern: SparsityPattern,
    *,
    setup: SetupOptions | None = None,
    rows: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> CSRMatrix:
    """Step 3 of Alg. 1: fill in values of ``G`` on a lower-triangular pattern.

    ``pattern`` must be lower triangular with a full diagonal.  Its rows are
    split into supernodes (:func:`_supernode_heads`), runs of consecutive
    rows whose patterns are leading prefixes of the last one's, ``S_h``.
    Supernodes are grouped by ``(k, c)``, the head's pattern size and the
    run's length; each group's Gram blocks ``A[S_h, S_h]`` are gathered, a
    bounded batch at a time, into a stacked ``(m, k, k)`` tensor — read from
    a batch-local dense table when the batch's blocks overlap enough to keep
    it small, by one compiled ``csr_sample_values`` call otherwise — and
    every supernode of the batch is factored at once
    (:func:`_factor_supernodes`).  A batch holding a singular block is
    solved again one supernode at a time; only a supernode that fails on its
    own is solved row by row, and only rows that fail unshifted get a tiny
    diagonal shift.  A row whose system stays singular raises
    :class:`~repro.errors.NotSPDError` naming the row and its pattern size.

    ``setup`` selects the compute dtype (:class:`SetupOptions`); the default
    computes in float64 and matches one dense solve per row to LAPACK
    rounding (within 1e-12 on well-conditioned inputs).

    ``rows`` (integer row ids, default all) restricts the output to those
    rows and ``out`` (float64, one slot per pattern entry, default a new
    array) receives their values; entries of every other row are left as
    they are.  Each supernode holding a selected row is solved whole, and
    only the selected rows are written.  A row's values are a function of
    ``A``, ``pattern`` and the dtype alone: supernodes come from the
    pattern, never from ``rows``, and every block is factored on its own, so
    they are bit for bit the same whichever rows are selected, however the
    batches split and whichever arm gathered the block — except the sign of
    a zero when ``A`` stores a ``-0.0``, which the compiled gather keeps or
    drops by the batch's size.  The returned matrix stores ``out`` itself as
    its values.
    """
    setup = setup if setup is not None else SetupOptions()
    row_sizes = _check_pattern(mat, pattern)
    n = mat.nrows
    dtype = setup.np_dtype
    if out is None:
        out = np.empty(pattern.nnz, dtype=np.float64)
    else:
        _check_out(out, pattern.nnz)
    chosen = np.ones(n, dtype=bool) if rows is None else _check_rows(rows, n)

    mat._validate()  # the compiled gather reads A as canonical CSR, unchecked
    sample = _sparsetools().csr_sample_values
    avals = mat.data.astype(dtype, copy=False)
    slot_of = np.full(max(n, mat.ncols), -1, dtype=np.int64)  # scratch of the table arm

    # the supernodes holding a chosen row, grouped by (k, c): the head's
    # pattern size and the number of rows in the run
    heads = _supernode_heads(pattern, row_sizes)
    chain = np.diff(heads, prepend=-1)
    if heads.size:
        wanted = np.logical_or.reduceat(chosen, heads - chain + 1)
        heads, chain = heads[wanted], chain[wanted]
    sizes = row_sizes[heads]
    keys = sizes * (n + 1) + chain
    order = np.argsort(keys, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1) if heads.size else []
    pending = []
    for members in groups:
        k, c = int(sizes[members[0]]), int(chain[members[0]])
        step = max(1, _BATCH_ENTRIES // (k * k))
        pending.extend(
            (k, c, heads[members[lo : lo + step]]) for lo in range(0, members.size, step)
        )
    rows_written = table_rows = 0
    while pending:
        k, c, batch = pending.pop()
        m = batch.size
        # stacked pattern indices of the heads: (m, k), diagonal last
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
            elif cols.size**2 <= ratio_limit and m > 1:  # only the cap fails
                pending += [(k, c, batch[: m // 2]), (k, c, batch[m // 2 :])]
                continue
        by_table = subs is not None
        if subs is None:
            subs = _gather_sampled(sample, mat, avals, idx)
        g = _solve_supernodes(subs, c, batch)
        # row h - c + 1 + j holds the first k - c + 1 + j entries of S_h; its
        # entries follow the previous row's and end where the head's begin
        offset = -(c - 1) * (2 * k - c) // 2
        for j in range(c):
            size = k - c + 1 + j
            dest, vals = pos[:, :size] + offset, g[:, j, :size]
            offset += size
            pick = chosen[batch - (c - 1 - j)]
            if not pick.all():
                dest, vals = dest[pick], vals[pick]
            out[dest] = vals
            rows_written += len(vals)
            table_rows += len(vals) if by_table else 0

    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("fsai.batched_groups").inc(len(groups))
        metrics.counter("fsai.batched_rows").inc(rows_written)
        metrics.counter("fsai.supernodes").inc(heads.size)
        metrics.counter("fsai.gather.table_rows").inc(table_rows)
        metrics.counter("fsai.gather.search_rows").inc(rows_written - table_rows)
        metrics.gauge("fsai.batched_max_block").set(int(sizes.max(initial=0)))
    return CSRMatrix(
        (n, n), pattern.indptr.copy(), pattern.indices.copy(), out, check=False
    )


def _supernode_heads(pattern: SparsityPattern, row_sizes: np.ndarray) -> np.ndarray:
    """The last rows of the pattern's supernodes, ascending.

    Row ``i`` joins row ``i + 1``'s supernode when ``S_{i+1} = S_i ∪ {i+1}``:
    one longer, and its leading entries are row ``i``'s.  A supernode is
    therefore a run of consecutive rows ending at its head ``h``, each row's
    pattern a leading prefix of ``S_h``, and the run's rows are the last
    positions of ``S_h``.  One pass over the entries of the candidate rows.
    """
    cand = np.flatnonzero(row_sizes[1:] == row_sizes[:-1] + 1)
    here = _row_entry_positions(pattern.indptr, cand)
    lens = row_sizes[cand]
    differ = pattern.indices[here] != pattern.indices[here + np.repeat(lens, lens)]
    joins = np.zeros(row_sizes.size, dtype=bool)
    joins[cand] = True
    joins[np.repeat(cand, lens)[differ]] = False
    return np.flatnonzero(~joins)


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


def _gather_sampled(sample, mat: CSRMatrix, avals: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Gram blocks ``A[S_i, S_i]`` of one batch by SciPy's compiled
    ``csr_sample_values``: entry ``(b, r, c)`` is ``A[idx[b, r], idx[b, c]]``.
    The sampler is handed only the rows ``idx.min() … idx.max()`` of ``A``
    (a rebased ``indptr``, the same ``indices`` and values), because on its
    binary-search branch it first re-checks the canonical format of every
    row it is given; it checks no length, so the blocks are sized by the
    sample arrays."""
    m, k = idx.shape
    # pattern rows are sorted: their first and last columns bound the slice
    lo = int(np.minimum.reduce(idx[:, 0]))
    hi = int(np.maximum.reduce(idx[:, -1])) + 1
    first, last = mat.indptr[lo], mat.indptr[hi]
    subs = np.empty((m, k, k), dtype=avals.dtype)
    sample(hi - lo, mat.ncols, mat.indptr[lo : hi + 1] - first, mat.indices[first:last],
           avals[first:last], m * k * k, (idx - lo).repeat(k),
           idx[:, None, :].repeat(k, axis=1), subs)
    return subs


def _solve_supernodes(subs: np.ndarray, c: int, heads: np.ndarray) -> np.ndarray:
    """The ``c`` rows of ``G`` of every supernode of a batch, ``(m, c, k)``:
    row ``j`` holds the values of row ``h - c + 1 + j`` on its leading
    ``k - c + 1 + j`` entries (the rest is not used).  A batch holding a
    singular block is solved again one supernode at a time, and only a
    supernode that fails on its own is solved row by row."""
    try:
        return _factor_supernodes(subs, c)
    except np.linalg.LinAlgError:
        pass
    if heads.size > 1:
        return np.concatenate(
            [_solve_supernodes(subs[b : b + 1], c, heads[b : b + 1]) for b in range(heads.size)]
        )
    k = subs.shape[1]
    rows = np.zeros((1, c, k), dtype=subs.dtype)
    for j in range(c):
        size = k - c + 1 + j
        row = int(heads[0]) - c + 1 + j
        y = _solve_row_guarded(subs[0, :size, :size].astype(np.float64), row)
        rows[0, j, :size] = y / np.sqrt(y[-1])
    return rows


def _factor_supernodes(subs: np.ndarray, c: int) -> np.ndarray:
    """Row ``i`` of ``G`` is the last row of ``chol(A[S_i, S_i])⁻¹``, so the
    rows of a supernode are the last ``c`` rows of ``chol(A[S_h, S_h])⁻¹``.
    With ``B`` the first ``k - c`` positions of ``S_h`` and ``t`` the last
    ``c``, those rows are ``L⁻¹ [−Zᵀ I]``, where ``Z = A_BB⁻¹ A_Bt`` and
    ``L = chol(A_tt − A_tB Z)``: one batched LU solve with ``c``
    right-hand sides and one ``c × c`` Cholesky factor, each a LAPACK call
    per block, then ``c`` steps of forward substitution over the batch, which
    leave exact zeros past each row's diagonal.  A singleton (``c = 1``) is
    the same formula: ``[−zᵀ 1] / sqrt(a_tt − a_tBᵀ z)``.  Raises
    ``LinAlgError`` when a block is singular or not positive definite."""
    m, k, _ = subs.shape
    kb = k - c
    rhs = np.zeros((m, c, k), dtype=subs.dtype)
    rhs[:, :, kb:] = np.eye(c, dtype=subs.dtype)
    schur = subs[:, kb:, kb:]
    if kb:
        z = np.linalg.solve(subs[:, :kb, :kb], subs[:, :kb, kb:])
        schur = schur - subs[:, kb:, :kb] @ z
        rhs[:, :, :kb] = -z.transpose(0, 2, 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        # the Cholesky factor of a 1 × 1 block is its square root, bit for
        # bit; a block that is not positive definite ends in nan or inf
        low = np.sqrt(schur) if c == 1 else np.linalg.cholesky(schur)
        # L⁻¹ by forward substitution, one row of L per step
        for j in range(c):
            if j:
                rhs[:, j] -= (low[:, j : j + 1, :j] @ rhs[:, :j])[:, 0]
            rhs[:, j] /= low[:, j, j, None]
    if not np.isfinite(rhs).all():
        raise np.linalg.LinAlgError
    return rhs


def _solve_row_guarded(sub: np.ndarray, row: int) -> np.ndarray:
    """Breakdown guard for one row: ``A[S_i, S_i] y = e_last`` as it is, then
    with escalating diagonal shifts; raises :class:`NotSPDError` naming the
    row when every shift fails."""
    k = sub.shape[0]
    rhs = np.zeros(k)
    rhs[k - 1] = 1.0
    shift = _FALLBACK_SHIFT * max(1.0, float(np.abs(np.diag(sub)).max()))
    for scale in (0.0, *(10.0**attempt for attempt in range(8))):
        try:
            y = np.linalg.solve(sub + np.eye(k) * (shift * scale), rhs)
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(y).all() and y[k - 1] > 0:
            return y
    raise NotSPDError(
        f"FSAI local system of row {row} (pattern size {k}) is not positive "
        "definite even after shifting; the input matrix is likely not SPD"
    )
