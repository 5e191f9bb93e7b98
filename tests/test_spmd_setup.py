"""The FSAIE-Comm set-up run inside SPMD ranks, as an oracle for the driver.

The library builds preconditioners driver-side (batched solves over the
whole matrix).  The rank program below executes Algorithms 2–4 the way the
paper's MPI code does, on :mod:`repro.mpisim` with real messages:

1. each rank holds only its own rows of ``A`` (plus the pattern block);
2. the per-row systems ``A[S_i, S_i] y = e`` need off-rank rows of ``A`` —
   ranks exchange exactly the rows their patterns reference;
3. the cache-friendly extension (Alg. 3) is embarrassingly local;
4. the dynamic filter (Alg. 4) computes the global average entry count with
   one real ``allreduce``, then bisects locally;
5. the final factor rows are computed rank-locally, by ``test_fsai``'s
   one-solve-per-row oracle.

The tests assert it reproduces :func:`repro.core.build_fsaie_comm`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FilterSpec,
    Preconditioner,
    PrecondOptions,
    build_fsai,
    build_fsaie_comm,
    check_comm_invariance,
    fsai_pattern,
    pcg,
)
from repro.core.extension import ExtensionMode
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.matgen import get_case, paper_rhs, poisson2d
from repro.mpisim import CommTracker
from repro.sparse import CSRMatrix, SparsityPattern

from extension_oracle import dynamic_filter_for_rank, extend_rank_pattern
from spmd_engine import run_spmd
from test_fsai import compute_g_values_per_row

_TAG_ROWREQ = 8_100
_TAG_ROWDATA = 8_101
_TAG_DIAGREQ = 8_102
_TAG_DIAGDATA = 8_103


async def _gather_foreign_rows(comm, partition, local_a, my_rows, needed):
    """``{global_row: (cols, vals)}`` for the owned rows and the off-rank
    rows listed in ``needed``: every rank sends each owner the rows it
    wants, then receives ``(row, cols, vals)`` per row."""
    p = comm.rank
    owner = partition.owner
    rows_by_owner = {q: needed[owner[needed] == q] for q in range(comm.size) if q != p}
    for q, want in rows_by_owner.items():
        comm.send(want, q, _TAG_ROWREQ)
    for q in rows_by_owner:
        wanted = await comm.recv(q, _TAG_ROWREQ)
        payload = []
        for g in np.asarray(wanted, dtype=np.int64):
            cols, vals = local_a.row(int(partition.local_index[g]))
            payload.append((int(g), cols.copy(), vals.copy()))
        comm.send(payload, q, _TAG_ROWDATA)
    table = {int(g): local_a.row(li) for li, g in enumerate(my_rows)}
    for q in rows_by_owner:
        for g, cols, vals in await comm.recv(q, _TAG_ROWDATA):
            table[g] = (cols, vals)
    return table


async def _exchange_diag(comm, partition, my_diag, foreign):
    """Pre-factor diagonal values ``g_cc`` of the off-rank columns."""
    p = comm.rank
    owner = partition.owner
    wanted_by_owner = {q: foreign[owner[foreign] == q] for q in range(comm.size) if q != p}
    for q, wanted in wanted_by_owner.items():
        comm.send(wanted, q, _TAG_DIAGREQ)
    for q in wanted_by_owner:
        wanted = await comm.recv(q, _TAG_DIAGREQ)
        comm.send(np.array([my_diag[int(g)] for g in wanted]), q, _TAG_DIAGDATA)
    out = {}
    for q, wanted in wanted_by_owner.items():
        values = await comm.recv(q, _TAG_DIAGDATA)
        out.update((int(g), float(v)) for g, v in zip(wanted, values))
    return out


def _solve_rows(row_table, pattern_rows):
    """Step 3 of Alg. 1 for the owned rows, from the gathered rows of ``A``.

    The gathered rows span a square block over their own ids; the owned rows
    get their pattern in that numbering (order-preserving, so the diagonal
    stays last) and every other row its diagonal, and the block goes through
    the per-row oracle."""
    ids = np.array(sorted(row_table), dtype=np.int64)
    rows, cols, vals = [], [], []
    for i, g in enumerate(ids):
        c, v = row_table[int(g)]
        inside = np.isin(c, ids)
        rows.append(np.full(int(inside.sum()), i, dtype=np.int64))
        cols.append(np.searchsorted(ids, c[inside]))
        vals.append(v[inside])
    m = ids.size
    block = CSRMatrix.from_coo(
        (m, m), np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
    local = [[i] for i in range(m)]
    for g, idx in pattern_rows.items():
        local[int(np.searchsorted(ids, g))] = np.searchsorted(ids, idx).tolist()
    g_block = compute_g_values_per_row(block, SparsityPattern.from_rows((m, m), local))
    return {
        g: g_block.row(int(np.searchsorted(ids, g)))[1].copy() for g in pattern_rows
    }


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


def fsaie_comm_in_ranks(
    mat, partition, *, line_bytes=64, filter_spec=FilterSpec(), tracker=None
):
    """FSAIE-Comm built inside SPMD ranks; the driver only distributes the
    input and reassembles the factor."""
    base = fsai_pattern(mat)
    dist_a = DistMatrix.from_global(mat, partition)
    dist_pattern = DistMatrix.from_global(base.to_csr(), partition)
    owner = partition.owner

    async def rank_program(comm):
        p = comm.rank
        lm_pattern = dist_pattern.locals[p]
        my_rows = partition.global_ids[p]

        # Alg. 3: local cache-friendly communication-aware extension
        ext = extend_rank_pattern(
            lm_pattern, owner, line_bytes, ExtensionMode.COMM, nparts=partition.nparts
        )
        col_global = np.concatenate([lm_pattern.global_rows, lm_pattern.ext_cols])
        base_rows = {
            int(g): col_global[lm_pattern.csr.row(li)[0]] for li, g in enumerate(my_rows)
        }
        pattern_rows = {g: np.sort(cols) for g, cols in base_rows.items()}
        for gi, gj in zip(ext.rows, ext.cols):
            pattern_rows[int(gi)] = np.unique(np.append(pattern_rows[int(gi)], gj))

        # gather every A row the local systems reference
        footprint = np.unique(np.concatenate(list(pattern_rows.values())))
        foreign = footprint[owner[footprint] != p]
        row_table = await _gather_foreign_rows(
            comm, partition, _localize_a(dist_a.locals[p]), my_rows, foreign
        )

        # Alg. 2 step 4: precalculate the factor on the extended pattern; the
        # filter compares against sqrt(g_ii * g_jj), off-rank diagonals
        # travel over the same channels
        g_rows = _solve_rows(row_table, pattern_rows)
        diag = {g: vals[-1] for g, vals in g_rows.items()}
        diag.update(await _exchange_diag(comm, partition, diag, foreign))

        def ratios_of(g):
            kept_base = np.isin(pattern_rows[g], base_rows[g])
            ext_cols = pattern_rows[g][~kept_base]
            scale = np.sqrt(abs(diag[g]) * np.abs([diag[int(c)] for c in ext_cols]))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(scale > 0, np.abs(g_rows[g][~kept_base]) / scale, 0.0)
            return kept_base, ratio

        base_count = sum(base_rows[g].size for g in pattern_rows)
        ratios = np.concatenate([ratios_of(g)[1] for g in pattern_rows])
        my_count = base_count + int(np.count_nonzero(ratios > filter_spec.value))
        average = await comm.allreduce(float(my_count)) / comm.size
        my_filter = filter_spec.value
        if filter_spec.dynamic:
            my_filter = dynamic_filter_for_rank(
                base_count,
                ratios,
                filter_spec.value,
                average,
                band=filter_spec.band,
                max_bisection=filter_spec.max_bisection,
            )

        # Alg. 2 step 5: filter and recompute the owned rows
        filtered_rows = {}
        for g in pattern_rows:
            kept_base, ratio = ratios_of(g)
            keep = kept_base.copy()
            keep[~kept_base] = ratio > my_filter
            filtered_rows[g] = pattern_rows[g][keep]
        return my_filter, filtered_rows, _solve_rows(row_table, filtered_rows)

    results = run_spmd(rank_program, partition.nparts, tracker=tracker)
    rows, cols, vals = [], [], []
    for _, filtered_rows, final_rows in results:
        for g, idx in filtered_rows.items():
            rows.append(np.full(idx.size, g, dtype=np.int64))
            cols.append(idx)
            vals.append(final_rows[g])
    g_final = CSRMatrix.from_coo(
        mat.shape, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
    return Preconditioner(
        name="FSAIE-Comm(SPMD)",
        g=DistMatrix.from_global(g_final, partition),
        gt=DistMatrix.from_global(g_final.transpose(), partition),
        base_nnz=base.nnz,
        nnz=g_final.nnz,
        filters=np.array([r[0] for r in results]),
    )


@pytest.fixture(scope="module")
def system():
    mat = poisson2d(16)
    part = RowPartition.from_matrix(mat, 4, seed=0)
    return mat, part


class TestSPMDSetup:
    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize("filter_value", [0.01, 0.1])
    def test_matches_driver_build(self, system, dynamic, filter_value):
        mat, part = system
        spec = FilterSpec(filter_value, dynamic=dynamic)
        driver = build_fsaie_comm(mat, part, PrecondOptions(filter=spec))
        spmd = fsaie_comm_in_ranks(mat, part, filter_spec=spec)
        assert spmd.g.to_global().allclose(driver.g.to_global())
        assert np.allclose(spmd.filters, driver.filters)

    def test_matches_on_unstructured_case(self):
        case = get_case("G3_circuit")
        mat = case.build()
        part = RowPartition.from_matrix(mat, 5, seed=3)
        spec = FilterSpec(0.01, dynamic=True)
        driver = build_fsaie_comm(mat, part, PrecondOptions(filter=spec))
        spmd = fsaie_comm_in_ranks(mat, part, filter_spec=spec)
        assert spmd.g.to_global().allclose(driver.g.to_global())

    def test_larger_cache_lines(self, system):
        mat, part = system
        spec = FilterSpec(0.01, dynamic=True)
        driver = build_fsaie_comm(
            mat, part, PrecondOptions(line_bytes=256, filter=spec)
        )
        spmd = fsaie_comm_in_ranks(mat, part, line_bytes=256, filter_spec=spec)
        assert spmd.g.to_global().allclose(driver.g.to_global())

    def test_comm_invariance_and_solve(self, system):
        mat, part = system
        pre = fsaie_comm_in_ranks(mat, part)
        base = build_fsai(mat, part)
        assert check_comm_invariance(base, pre)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, 0), part)
        res = pcg(da, b, precond=pre.apply)
        assert res.converged

    def test_tracker_sees_setup_traffic(self, system):
        mat, part = system
        tracker = CommTracker()
        fsaie_comm_in_ranks(mat, part, tracker=tracker)
        # row requests + row data + diag exchange + allreduce rounds
        assert tracker.total_messages >= 3 * part.nparts * (part.nparts - 1)

    def test_single_rank(self, system):
        mat, _ = system
        part = RowPartition.from_matrix(mat, 1)
        pre = fsaie_comm_in_ranks(mat, part)
        driver = build_fsaie_comm(mat, part)
        assert pre.g.to_global().allclose(driver.g.to_global())
