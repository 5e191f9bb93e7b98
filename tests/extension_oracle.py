"""Alg. 3 and Alg. 4 one rank at a time: the reference oracle.

``extend_dist_pattern`` runs the cache-friendly extension over every rank
at once, and ``compute_dynamic_filters`` bisects every rank's filter at
once.  These are the per-rank functions they replaced — what one MPI
process computes for itself — kept so tests can assert the stacked results
equal them bitwise, and so SPMD rank programs can run them.  Neither is
meant to be fast.  :func:`extension_entry_mask` finds the extension
entries of a factor by looking each one up in the base pattern, where the
set-up keeps the positions its union inserted them at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cachesim.lines import doubles_per_line
from repro.core.extension import ExtensionMode
from repro.dist.matrix import LocalMatrix
from repro.errors import ShapeError
from repro.sparse import CSRMatrix, SparsityPattern




def extension_entry_mask(g: CSRMatrix, base: SparsityPattern) -> np.ndarray:
    """Boolean mask over ``g``'s entries: True where the entry is *extension*
    (absent from the base pattern) and therefore filterable."""
    if g.shape != base.shape:
        raise ShapeError("factor and base pattern shapes differ")
    rows = np.repeat(np.arange(g.nrows, dtype=np.int64), g.row_nnz())
    return ~base.contains(rows, g.indices)


@dataclass(frozen=True)
class RankExtension:
    """Additions computed for one rank, in *global* numbering."""

    rank: int
    rows: np.ndarray  # global row ids of added entries
    cols: np.ndarray  # global column ids of added entries
    n_local_added: int
    n_halo_added: int

    @property
    def n_added(self) -> int:
        """Total entries this rank adds."""
        return self.rows.size


def extend_rank_pattern(
    lm: LocalMatrix,
    owner: np.ndarray,
    line_bytes: int,
    mode: ExtensionMode,
    *,
    nparts: int,
) -> RankExtension:
    """Compute the cache-friendly extension of one rank's pattern block.

    Parameters
    ----------
    lm:
        The rank's block of the (lower-triangular) pattern of ``G``, with
        local column indexing.
    owner:
        Global row→rank owner map (used for the halo admissibility rule).
    line_bytes:
        Cache line size of the target machine (64 B or 256 B in the paper).
    mode:
        ``LOCAL`` for FSAIE, ``COMM`` for FSAIE-Comm.
    nparts:
        Number of ranks of the partition ``owner`` describes.
    """
    dpl = doubles_per_line(line_bytes)
    n_local = lm.n_local
    n_total = n_local + lm.n_halo
    csr = lm.csr
    nnz = csr.nnz
    empty = np.empty(0, dtype=np.int64)
    if nnz == 0 or dpl == 1:
        # one value per line: no free neighbours exist
        return RankExtension(lm.rank, empty, empty, 0, 0)

    entry_rows = np.repeat(np.arange(n_local, dtype=np.int64), csr.row_nnz())
    entry_cols = csr.indices

    # unique (row, cache line) pairs — step 6 of Alg. 3 ("already considered
    # column block") collapses duplicates
    n_lines = (n_total + dpl - 1) // dpl
    pair_key = entry_rows * n_lines + entry_cols // dpl
    uniq = np.unique(pair_key)
    urow = uniq // n_lines
    uline = uniq % n_lines

    # expand each pair to the dpl candidate positions of its line (step 10)
    cand_row = np.repeat(urow, dpl)
    cand_col = (uline[:, None] * dpl + np.arange(dpl, dtype=np.int64)).ravel()
    keep = cand_col < n_total
    cand_row, cand_col = cand_row[keep], cand_col[keep]

    # global ids of candidates
    col_global = np.concatenate([lm.global_rows, lm.ext_cols])
    gcol = col_global[cand_col]
    grow = lm.global_rows[cand_row]

    # strict lower-triangularity in global numbering
    keep = gcol < grow
    cand_row, cand_col, gcol = cand_row[keep], cand_col[keep], gcol[keep]

    # drop candidates already present: keys are sorted because CSR rows are
    is_halo = cand_col >= n_local
    entry_key = entry_rows * n_total + entry_cols
    cand_key = cand_row * n_total + cand_col
    pos = np.searchsorted(entry_key, cand_key)
    pos = np.minimum(pos, entry_key.size - 1)
    present = entry_key[pos] == cand_key
    keep = ~present
    cand_row, cand_col, gcol, is_halo = (
        cand_row[keep],
        cand_col[keep],
        gcol[keep],
        is_halo[keep],
    )

    if mode is ExtensionMode.LOCAL:
        keep = ~is_halo
    else:
        # halo candidate (i, j) admissible iff row i is already sent to
        # owner(j): some existing halo entry of row i has that owner
        halo_entries = entry_cols >= n_local
        # (row, owner) keys of existing halo entries
        existing_owner = owner[col_global[entry_cols[halo_entries]]]
        sent_key = np.unique(entry_rows[halo_entries] * nparts + existing_owner)
        cand_owner = owner[gcol]
        cand_sent_key = cand_row * nparts + cand_owner
        pos = np.searchsorted(sent_key, cand_sent_key)
        pos = np.minimum(pos, max(sent_key.size - 1, 0))
        row_sent = (
            sent_key[pos] == cand_sent_key if sent_key.size else np.zeros(cand_row.size, bool)
        )
        keep = ~is_halo | row_sent

    cand_row, cand_col, gcol, is_halo = (
        cand_row[keep],
        cand_col[keep],
        gcol[keep],
        is_halo[keep],
    )
    n_halo_added = int(np.count_nonzero(is_halo))
    return RankExtension(
        lm.rank,
        lm.global_rows[cand_row],
        gcol,
        cand_row.size - n_halo_added,
        n_halo_added,
    )


def _count_kept(base_count: int, ext_ratios: np.ndarray, filt: float) -> int:
    """Entries a rank keeps under ``filt``: base plus surviving extension."""
    return base_count + int(np.count_nonzero(ext_ratios > filt))


def static_filter_counts(
    base_counts: np.ndarray, ext_ratios_per_rank: list[np.ndarray], filt: float
) -> np.ndarray:
    """Per-rank kept-entry counts under one global filter value."""
    return np.array(
        [
            _count_kept(int(b), r, filt)
            for b, r in zip(base_counts, ext_ratios_per_rank)
        ],
        dtype=np.int64,
    )


def dynamic_filter_for_rank(
    base_count: int,
    ext_ratios: np.ndarray,
    initial_filter: float,
    average_count: float,
    *,
    band: tuple[float, float] = (0.95, 1.05),
    max_bisection: int = 30,
) -> float:
    """Alg. 4 for one rank: adjust the filter until load enters the band.

    ``average_count`` is the global mean kept-entry count computed once with
    the initial filter (the single ``MPI_Allreduce`` of the algorithm).  Only
    overloaded ranks (load above the band) adjust; the filter never drops
    below ``initial_filter`` because base entries dominate underloaded ranks
    and cannot be recovered by filtering.
    """
    lo_band, hi_band = band
    if average_count <= 0:
        return initial_filter
    imb = _count_kept(base_count, ext_ratios, initial_filter) / average_count
    if imb <= hi_band:
        return initial_filter
    prev_filter = initial_filter
    new_filter = initial_filter
    for _ in range(max_bisection):
        if imb > 1.0:
            prev_filter = new_filter
            new_filter = new_filter * 2 if new_filter > 0 else 1e-8
        else:
            new_filter = (new_filter + prev_filter) / 2.0
        imb = _count_kept(base_count, ext_ratios, new_filter) / average_count
        if lo_band <= imb <= hi_band:
            break
        # all extension entries filtered and still overloaded: nothing more
        # filtering can do, the base pattern itself is imbalanced
        if imb > hi_band and np.all(ext_ratios <= new_filter):
            break
    return new_filter


def extend_per_rank(dist_g, line_bytes: int, mode: ExtensionMode) -> list[RankExtension]:
    """:func:`extend_rank_pattern` on every rank of a distributed pattern."""
    partition = dist_g.partition
    return [
        extend_rank_pattern(lm, partition.owner, line_bytes, mode, nparts=partition.nparts)
        for lm in dist_g.locals
    ]


def filters_per_rank(base_counts, ext_ratios_per_rank, spec) -> np.ndarray:
    """Per-rank filter values, one :func:`dynamic_filter_for_rank` a rank."""
    nparts = len(ext_ratios_per_rank)
    if not spec.dynamic or nparts == 1:
        return np.full(nparts, spec.value, dtype=np.float64)
    average = float(static_filter_counts(base_counts, ext_ratios_per_rank, spec.value).mean())
    return np.array([
        dynamic_filter_for_rank(int(b), r, spec.value, average, band=spec.band,
                                max_bisection=spec.max_bisection)
        for b, r in zip(base_counts, ext_ratios_per_rank)
    ], dtype=np.float64)
