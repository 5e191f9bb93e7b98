"""Cache-friendly sparse pattern extension (Alg. 3 of the paper).

Candidates for new entries in row ``i`` of ``G`` are the positions of the
SpMV multiplying vector ``x`` that share a cache line with an ``x`` operand
the row already touches — fetching them is free.  In the distributed layout
(:class:`~repro.dist.matrix.LocalMatrix`) ``x`` is ``[x_local | x_halo]``,
so a candidate position is *local* (< ``n_local``) or *halo*.

Admissibility:

* every candidate must keep ``G`` strictly lower triangular in **global**
  numbering (the diagonal is always present already);
* ``LOCAL`` mode (FSAIE, prior work applied per process): only local
  candidates are admitted;
* ``COMM`` mode (FSAIE-Comm, this paper): halo candidates are also admitted
  when they do not change the communication scheme — the column must already
  be received (true for every halo position by construction) **and** the row
  must already be sent to the candidate column's owner, so ``Gᵀ``'s exchange
  is also unchanged (Alg. 3 step 13).

The whole computation runs over every rank at once, with the rank as the
leading key: unique ``(row, cache line)`` pairs of the stacked blocks
expand to candidate positions, and membership / triangularity / ownership
checks are array operations.  Ranks never interact (the paper runs Alg. 3
on each process independently), so each rank's additions are what it
computes alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.cachesim.lines import doubles_per_line
from repro.dist.matrix import DistMatrix

__all__ = ["ExtensionMode", "DistExtension", "extend_dist_pattern"]


class ExtensionMode(Enum):
    """Which candidates an extension may admit."""

    LOCAL = "local"  # FSAIE: local columns only
    COMM = "comm"  # FSAIE-Comm: local + communication-free halo columns


@dataclass(frozen=True)
class DistExtension:
    """Additions computed for every rank, in *global* numbering, rank after
    rank: rank ``p``'s at ``offsets[p] : offsets[p + 1]``."""

    rows: np.ndarray  # global row ids of added entries
    cols: np.ndarray  # global column ids of added entries
    offsets: np.ndarray  # nparts + 1 bounds into rows / cols
    n_local_added: np.ndarray  # per rank
    n_halo_added: np.ndarray  # per rank

    @property
    def n_added(self) -> int:
        """Total entries every rank adds."""
        return self.rows.size


def extend_dist_pattern(
    dist_g: DistMatrix, line_bytes: int, mode: ExtensionMode
) -> DistExtension:
    """Compute the cache-friendly extension of every rank's pattern block.

    Parameters
    ----------
    dist_g:
        The (lower-triangular) pattern of ``G`` distributed by rows, each
        row's local columns ascending (as :meth:`DistMatrix.from_global`
        stores them).
    line_bytes:
        Cache line size of the target machine (64 B or 256 B in the paper).
    mode:
        ``LOCAL`` for FSAIE, ``COMM`` for FSAIE-Comm.
    """
    part, sched = dist_g.partition, dist_g.schedule
    nparts, nrows = part.nparts, dist_g.shape[0]
    dpl = doubles_per_line(line_bytes)
    offsets, entry_cols = dist_g.block_entries()
    n_local = part.sizes()
    n_total = n_local + np.diff(sched.halo_offsets)
    if entry_cols.size == 0 or dpl == 1:
        # one value per line: no free neighbours exist
        empty, zeros = np.empty(0, dtype=np.int64), np.zeros(nparts, dtype=np.int64)
        return DistExtension(empty, empty, np.zeros(nparts + 1, dtype=np.int64), zeros, zeros)

    # every entry's row in the stacked rows (rank after rank), each rank's
    # columns [its rows | its halo] in one array, rank after rank
    row_offsets, col_start = np.zeros((2, nparts + 1), dtype=np.int64)
    np.cumsum(n_local, out=row_offsets[1:])
    np.cumsum(n_total, out=col_start[1:])
    row_rank = np.repeat(np.arange(nparts, dtype=np.int64), n_local)
    entry_rows = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(dist_g.indptr))
    rows = np.concatenate([np.empty(0, dtype=np.int64), *part.global_ids])
    col_ids = np.empty(col_start[-1], dtype=np.int64)
    col_ids[np.arange(nrows) + (col_start - row_offsets)[row_rank]] = rows
    ext_rank = np.repeat(np.arange(nparts, dtype=np.int64), n_total - n_local)
    col_ids[np.arange(ext_rank.size) + (col_start[:-1] + n_local - sched.halo_offsets[:-1])[
        ext_rank]] = sched.halo_columns

    # unique (row, cache line) pairs — step 6 of Alg. 3 ("already considered
    # column block") collapses duplicates; a row's columns ascend, so the
    # pairs are its runs of entries on one line
    entry_lines = entry_cols // dpl
    new = np.ones(entry_cols.size, dtype=bool)
    new[1:] = (entry_rows[1:] != entry_rows[:-1]) | (entry_lines[1:] != entry_lines[:-1])
    urow, first = entry_rows[new], entry_lines[new] * dpl  # first: the line's first column
    pair_rank = row_rank[urow]

    # each pair's dpl candidate positions (step 10), one row of a
    # (pairs × dpl) grid, position k at column first + k; those present are
    # dropped.  Local indices ascend with the global ids, so a local
    # candidate is strictly lower triangular iff it is below its row
    present = np.zeros((urow.size, dpl), dtype=bool)
    present.ravel()[(np.cumsum(new) - 1) * dpl + entry_cols % dpl] = True
    k = np.arange(dpl, dtype=np.int64)
    keep = k < (urow - row_offsets[pair_rank] - first)[:, None]
    keep &= ~present
    n_halo_added = np.zeros(nparts, dtype=np.int64)
    # k of each line's first halo column, and of its rank's last column + 1
    halo_start, end = n_local[pair_rank] - first, n_total[pair_rank] - first
    lines = np.flatnonzero(halo_start < np.minimum(end, dpl))  # lines with halo columns
    if mode is ExtensionMode.COMM and lines.size:
        # a halo candidate (i, j) is admissible iff it is lower triangular
        # and row i is already sent to owner(j): some existing halo entry of
        # row i has that owner
        halo = ~present[lines] & (k >= halo_start[lines, None]) & (k < end[lines, None])
        cand = np.flatnonzero(halo)
        pair = lines[cand // dpl]
        at = pair * dpl + cand % dpl
        gcol = col_ids[col_start[pair_rank[pair]] + first[pair] + cand % dpl]
        entries = np.flatnonzero(entry_cols >= np.repeat(n_local, np.diff(offsets)))
        sent = np.sort(entry_rows[entries] * nparts + part.owner[
            col_ids[col_start[row_rank[entry_rows[entries]]] + entry_cols[entries]]])
        lower = np.flatnonzero(gcol < rows[urow[pair]])
        pair, at, gcol = pair[lower], at[lower], gcol[lower]
        key = urow[pair] * nparts + part.owner[gcol]
        admitted = sent[np.minimum(np.searchsorted(sent, key), sent.size - 1)] == key
        keep.ravel()[at[admitted]] = True
        n_halo_added = np.bincount(pair_rank[pair[admitted]], minlength=nparts)

    cand = np.flatnonzero(keep)
    pair = cand // dpl
    gcol = col_ids[(col_start[pair_rank] + first - np.arange(0, keep.size, dpl))[pair] + cand]
    bounds = np.searchsorted(cand, np.searchsorted(pair_rank, np.arange(nparts + 1)) * dpl)
    added = np.diff(bounds)
    return DistExtension(rows[urow[pair]], gcol, bounds, added - n_halo_added, n_halo_added)
