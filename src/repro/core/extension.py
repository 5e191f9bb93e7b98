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

The whole computation is vectorised over the rank's entries: unique
``(row, cache line)`` pairs expand to candidate positions, and membership /
triangularity / ownership checks are array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.cachesim.lines import doubles_per_line
from repro.dist.matrix import DistMatrix, LocalMatrix

__all__ = ["ExtensionMode", "RankExtension", "extend_rank_pattern", "extend_dist_pattern"]


class ExtensionMode(Enum):
    """Which candidates an extension may admit."""

    LOCAL = "local"  # FSAIE: local columns only
    COMM = "comm"  # FSAIE-Comm: local + communication-free halo columns


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


def extend_dist_pattern(
    dist_g: DistMatrix, line_bytes: int, mode: ExtensionMode
) -> list[RankExtension]:
    """Run :func:`extend_rank_pattern` on every rank of a distributed pattern."""
    partition = dist_g.partition
    return [
        extend_rank_pattern(lm, partition.owner, line_bytes, mode, nparts=partition.nparts)
        for lm in dist_g.locals
    ]
