"""Distributed (SPMD) preconditioner setup on the mpisim runtime.

Everywhere else the preconditioners are *built* by the driver (each rank's
extension computed in a loop, the factor solved globally) — numerically
identical to the paper's algorithm but bulk-synchronous.  This module
executes the genuine distributed setup of Algorithms 2–4 on the
message-passing runtime, the way the paper's MPI code runs it:

1. each rank holds only its own rows of ``A`` (plus the pattern block);
2. the per-row Frobenius systems ``A[S_i, S_i] y = e`` need off-rank rows of
   ``A`` — ranks exchange exactly the rows their patterns reference
   (a gather along the pattern's column footprint);
3. the cache-friendly extension (Alg. 3) is embarrassingly local;
4. the dynamic filter (Alg. 4) computes the global average entry count with
   one real ``allreduce``, then bisects locally;
5. the final factor rows are computed rank-locally.

Tests assert the result is bit-identical to the driver-side
:func:`repro.core.precond.build_fsaie_comm`.
"""

from __future__ import annotations

import numpy as np

from repro.core.extension import ExtensionMode, extend_rank_pattern
from repro.core.filtering import FilterSpec, dynamic_filter_for_rank
from repro.core.fsai import fsai_pattern
from repro.core.precond import Preconditioner, _distribute
from repro.dist.matrix import DistMatrix
from repro.instrument import get_tracer
from repro.dist.partition_map import RowPartition
from repro.mpisim import SUM, Comm, CommTracker, run_spmd
from repro.sparse.csr import CSRMatrix

__all__ = ["spmd_build_fsaie_comm"]

_TAG_ROWREQ = 8_100
_TAG_ROWDATA = 8_101


async def _gather_foreign_rows(
    comm: Comm,
    partition: RowPartition,
    local_a: CSRMatrix,
    my_rows: np.ndarray,
    needed: np.ndarray,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Fetch the off-rank rows of ``A`` listed in ``needed``.

    Every rank sends each owner the list of global rows it wants, then
    receives ``(cols, vals)`` per row.  Returns ``{global_row: (cols, vals)}``
    including the locally owned rows.
    """
    p = comm.rank
    owner = partition.owner
    local_index = partition.local_index

    rows_by_owner: dict[int, np.ndarray] = {}
    for q in range(comm.size):
        if q == p:
            continue
        mine = needed[owner[needed] == q]
        rows_by_owner[q] = mine
    # exchange request lists (alltoall-style with explicit messages)
    for q, want in rows_by_owner.items():
        comm.send(want, q, _TAG_ROWREQ)
    requests_for_me: dict[int, np.ndarray] = {}
    for q in range(comm.size):
        if q != p:
            requests_for_me[q] = await comm.recv(q, _TAG_ROWREQ)
    # serve requests from the local block
    for q, wanted in requests_for_me.items():
        payload = []
        for g in np.asarray(wanted, dtype=np.int64):
            li = int(local_index[g])
            cols, vals = local_a.row(li)
            payload.append((int(g), cols.copy(), vals.copy()))
        comm.send(payload, q, _TAG_ROWDATA)
    # collect
    table: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for li, g in enumerate(my_rows):
        cols, vals = local_a.row(li)
        table[int(g)] = (cols, vals)
    for q in rows_by_owner:
        for g, cols, vals in await comm.recv(q, _TAG_ROWDATA):
            table[g] = (cols, vals)
    return table


def _solve_rows(
    row_table: dict[int, tuple[np.ndarray, np.ndarray]],
    pattern_rows: dict[int, np.ndarray],
) -> dict[int, np.ndarray]:
    """Solve ``A[S_i, S_i] y = e_last`` per owned row from gathered A rows."""
    out: dict[int, np.ndarray] = {}
    for g, idx in pattern_rows.items():
        k = idx.size
        sub = np.zeros((k, k))
        for r, gi in enumerate(idx):
            cols, vals = row_table[int(gi)]
            pos = np.searchsorted(cols, idx)
            pos = np.minimum(pos, max(cols.size - 1, 0))
            hit = (cols[pos] == idx) if cols.size else np.zeros(k, bool)
            sub[r, hit] = vals[pos[hit]]
        rhs = np.zeros(k)
        rhs[k - 1] = 1.0
        try:
            y = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            shift = 1e-12 * max(1.0, float(np.abs(np.diag(sub)).max()))
            y = np.linalg.solve(sub + shift * np.eye(k), rhs)
        out[g] = y / np.sqrt(y[k - 1])
    return out


def spmd_build_fsaie_comm(
    mat: CSRMatrix,
    partition: RowPartition,
    *,
    line_bytes: int = 64,
    filter_spec: FilterSpec = FilterSpec(),
    tracker: CommTracker | None = None,
) -> Preconditioner:
    """Build FSAIE-Comm entirely inside SPMD ranks (real message passing).

    The driver only distributes the input and reassembles the result; every
    algorithmic step — pattern extension, row gathering, the Alg. 4
    allreduce and bisection, the factor solves — runs rank-local on
    :mod:`repro.mpisim`.
    """
    base = fsai_pattern(mat)
    dist_a = DistMatrix.from_global(mat, partition)
    dist_pattern = DistMatrix.from_global(base.to_csr(), partition)
    owner = partition.owner

    async def _rank_program(comm: Comm):
        p = comm.rank
        tracer = get_tracer()
        lm_pattern = dist_pattern.locals[p]
        lm_a = dist_a.locals[p]
        my_rows = partition.global_ids[p]

        # Alg. 3: local cache-friendly communication-aware extension
        with tracer.span("spmd.extension", rank=p):
            ext = extend_rank_pattern(
                lm_pattern, owner, line_bytes, ExtensionMode.COMM, nparts=partition.nparts
            )

        # per-row extended patterns in global column ids
        pattern_rows: dict[int, np.ndarray] = {}
        col_global = np.concatenate([lm_pattern.global_rows, lm_pattern.ext_cols])
        for li, g in enumerate(my_rows):
            cols = col_global[lm_pattern.csr.row(li)[0]]
            pattern_rows[int(g)] = np.sort(cols)
        for gi, gj in zip(ext.rows, ext.cols):
            gi = int(gi)
            pattern_rows[gi] = np.unique(np.append(pattern_rows[gi], gj))

        # gather every A row the local systems reference
        footprint = np.unique(np.concatenate(list(pattern_rows.values())))
        foreign = footprint[owner[footprint] != p]
        with tracer.span("spmd.gather_rows", rank=p, foreign=int(foreign.size)):
            row_table = await _gather_foreign_rows(
                comm, partition, _localize_a(lm_a), my_rows, foreign
            )

        # Alg. 2 step 4: precalculate the factor on the extended pattern
        with tracer.span("spmd.factor", rank=p, stage="precalculate"):
            g_rows = _solve_rows(row_table, pattern_rows)

        # the scale-independent filter compares against sqrt(g_ii * g_jj);
        # diagonal values of off-rank rows travel over the same channels
        diag = {g: vals[-1] for g, vals in g_rows.items()}
        diag.update(await _exchange_diag(comm, partition, diag, foreign))
        base_count = 0
        ratios = []
        for g, vals in g_rows.items():
            idx = pattern_rows[g]
            base_row = set(col_global[lm_pattern.csr.row(int(partition.local_index[g]))[0]].tolist())
            for c, v in zip(idx, vals):
                if int(c) in base_row:
                    base_count += 1
                else:
                    scale = np.sqrt(abs(diag[g]) * abs(diag[int(c)]))
                    ratios.append(abs(v) / scale if scale > 0 else 0.0)
        ratios = np.asarray(ratios)
        my_count = base_count + int(np.count_nonzero(ratios > filter_spec.value))
        with tracer.span("spmd.filtering", rank=p, dynamic=filter_spec.dynamic):
            total = await comm.allreduce(my_count, SUM)
            average = total / comm.size
            if filter_spec.dynamic:
                my_filter = dynamic_filter_for_rank(
                    base_count,
                    ratios,
                    filter_spec.value,
                    average,
                    band=filter_spec.band,
                    max_bisection=filter_spec.max_bisection,
                )
            else:
                my_filter = filter_spec.value

        # Alg. 2 step 5: filter and recompute the owned rows
        filtered_rows: dict[int, np.ndarray] = {}
        for g, vals in g_rows.items():
            idx = pattern_rows[g]
            base_row = set(col_global[lm_pattern.csr.row(int(partition.local_index[g]))[0]].tolist())
            keep = []
            for c, v in zip(idx, vals):
                if int(c) in base_row:
                    keep.append(int(c))
                else:
                    scale = np.sqrt(abs(diag[g]) * abs(diag[int(c)]))
                    if scale > 0 and abs(v) / scale > my_filter:
                        keep.append(int(c))
            filtered_rows[g] = np.asarray(sorted(keep), dtype=np.int64)
        with tracer.span("spmd.factor", rank=p, stage="recompute"):
            final_rows = _solve_rows(row_table, filtered_rows)
        return my_filter, filtered_rows, final_rows

    results = run_spmd(_rank_program, partition.nparts, tracker=tracker)

    # reassemble the global factor from the per-rank rows
    filters = np.array([r[0] for r in results])
    rows_acc, cols_acc, vals_acc = [], [], []
    for _, filtered_rows, final_rows in results:
        for g, idx in filtered_rows.items():
            rows_acc.append(np.full(idx.size, g, dtype=np.int64))
            cols_acc.append(idx)
            vals_acc.append(final_rows[g])
    g_final = CSRMatrix.from_coo(
        mat.shape,
        np.concatenate(rows_acc),
        np.concatenate(cols_acc),
        np.concatenate(vals_acc),
    )
    return _distribute(
        "FSAIE-Comm(SPMD)", g_final, partition, base_nnz=base.nnz, filters=filters
    )


_TAG_DIAGREQ = 8_102
_TAG_DIAGDATA = 8_103


async def _exchange_diag(
    comm: Comm,
    partition: RowPartition,
    my_diag: dict[int, float],
    foreign: np.ndarray,
) -> dict[int, float]:
    """Fetch pre-factor diagonal values ``g_cc`` for off-rank columns."""
    p = comm.rank
    owner = partition.owner
    wanted_by_owner: dict[int, np.ndarray] = {}
    for q in range(comm.size):
        if q == p:
            continue
        wanted_by_owner[q] = foreign[owner[foreign] == q]
        comm.send(wanted_by_owner[q], q, _TAG_DIAGREQ)
    for q in range(comm.size):
        if q == p:
            continue
        wanted = await comm.recv(q, _TAG_DIAGREQ)
        comm.send(
            np.array([my_diag[int(g)] for g in wanted], dtype=np.float64),
            q,
            _TAG_DIAGDATA,
        )
    out: dict[int, float] = {}
    for q, wanted in wanted_by_owner.items():
        values = await comm.recv(q, _TAG_DIAGDATA)
        for g, v in zip(wanted, values):
            out[int(g)] = float(v)
    return out


def _localize_a(lm_a) -> CSRMatrix:
    """The local A block with *global* column ids (what row exchange ships)."""
    col_global = np.concatenate([lm_a.global_rows, lm_a.ext_cols])
    rows, cols, vals = lm_a.csr.to_coo()
    return CSRMatrix.from_coo(
        (lm_a.n_local, int(col_global.max()) + 1 if col_global.size else 1),
        rows,
        col_global[cols],
        vals,
    )
