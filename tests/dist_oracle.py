"""The row distribution built one rank at a time: the reference oracle.

``RowPartition``, ``HaloSchedule.from_row_structure`` and
``DistMatrix.from_global`` build every rank at once with whole-array
operations.  These are the per-rank constructions they replaced, kept as
plain functions returning plain arrays, lists and dicts, so tests can
assert the vectorised objects equal them bitwise — dict key order
included.  Each runs one Python pass per rank (or per rank and owner);
none is meant to be fast.
"""

from __future__ import annotations

import numpy as np


def partition_arrays(owner: np.ndarray, nparts: int):
    """``(global_ids, local_index)``: one ``flatnonzero`` per rank."""
    owner = np.asarray(owner, dtype=np.int64)
    global_ids = [np.flatnonzero(owner == p).astype(np.int64) for p in range(nparts)]
    local_index = np.empty(owner.size, dtype=np.int64)
    for ids in global_ids:
        local_index[ids] = np.arange(ids.size, dtype=np.int64)
    return global_ids, local_index


def ext_cols(partition, indptr: np.ndarray, indices: np.ndarray) -> list[np.ndarray]:
    """Every rank's halo columns: unique (rank, column) keys split per rank."""
    nparts, n, owner = partition.nparts, partition.nrows, partition.owner
    row_rank = np.repeat(owner, np.diff(indptr))
    halo = np.flatnonzero(row_rank != owner[indices])
    keys = np.unique(row_rank[halo] * n + indices[halo])
    bounds = np.searchsorted(keys, np.arange(nparts + 1, dtype=np.int64) * n)
    return [keys[bounds[p] : bounds[p + 1]] - p * n for p in range(nparts)]


def schedule_lists(partition, ext: list[np.ndarray]) -> dict:
    """``recv_from``, ``recv_pos``, ``send_to`` and ``recv_src`` for given
    halo columns: one ``np.unique`` per rank, one ``flatnonzero`` per
    (rank, owner) pair, dicts filled rank by rank."""
    owner = partition.owner
    recv_from, recv_pos = [], []
    for cols in ext:
        by_owner, pos = {}, {}
        if cols.size:
            owners = owner[cols]
            for q in np.unique(owners):
                sel = np.flatnonzero(owners == q)
                by_owner[int(q)] = cols[sel]
                pos[int(q)] = sel.astype(np.int64)
        recv_from.append(by_owner)
        recv_pos.append(pos)
    send_to = [dict() for _ in range(partition.nparts)]
    for p, by_owner in enumerate(recv_from):
        for q, ids in by_owner.items():
            send_to[q][p] = ids
    recv_src = [
        {q: partition.local_index[ids] for q, ids in by_owner.items()}
        for by_owner in recv_from
    ]
    return dict(ext_cols=ext, recv_from=recv_from, recv_pos=recv_pos, send_to=send_to,
                recv_src=recv_src)


def local_blocks(mat, partition, ext: list[np.ndarray]):
    """``(blocks, values)``: per rank ``(indptr, indices, data, global_rows,
    ext_cols)`` from one ragged gather, one ``searchsorted`` and one stable
    argsort per rank; ``values`` every block's data, rank after rank."""
    values = np.empty(mat.nnz, dtype=np.float64)
    pos = 0
    blocks = []
    for p in range(partition.nparts):
        rows = partition.global_ids[p]
        n_local, width = rows.size, rows.size + ext[p].size
        counts = mat.indptr[rows + 1] - mat.indptr[rows]
        indptr = np.zeros(n_local + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        src = np.repeat(mat.indptr[rows] - indptr[:-1], counts)
        src += np.arange(src.size, dtype=np.int64)
        cols = mat.indices[src]
        local_cols = partition.local_index[cols]
        halo = np.flatnonzero(partition.owner[cols] != p)
        local_cols[halo] = n_local + np.searchsorted(ext[p], cols[halo])
        keys = np.repeat(np.arange(n_local, dtype=np.int64) * width, counts)
        keys += local_cols
        order = np.argsort(keys, kind="stable")
        data = values[pos : pos + src.size]
        np.take(mat.data, src[order], out=data)
        pos += src.size
        blocks.append((indptr, local_cols[order], data, rows, ext[p]))
    return blocks, values
