"""Unit tests for the distributed layer: partitions, halos, matrices, vectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import (
    DistMatrix,
    DistVector,
    HaloSchedule,
    RowPartition,
    spmd_cg,
    spmd_halo_update,
)
from repro.errors import PartitionError, ShapeError
from repro.mpisim import CommTracker
from repro.sparse import CSRMatrix, SparsityPattern

from conftest import random_sparse
from dist_oracle import partition_arrays


class TestRowPartition:
    def test_contiguous(self):
        part = RowPartition.contiguous(10, 3)
        assert part.nparts == 3
        assert part.sizes().sum() == 10
        assert part.sizes().max() - part.sizes().min() <= 1

    def test_local_global_roundtrip(self):
        part = RowPartition(np.array([1, 0, 1, 0, 2]))
        for p in range(3):
            ids = part.global_ids[p]
            assert np.array_equal(part.to_global(p, part.to_local(p, ids)), ids)

    def test_local_index_consistency(self):
        part = RowPartition(np.array([0, 1, 0, 1]))
        assert part.local_index[0] == 0
        assert part.local_index[2] == 1
        assert part.local_index[1] == 0
        assert part.local_index[3] == 1

    def test_to_local_rejects_foreign_rows(self):
        part = RowPartition(np.array([0, 1]))
        with pytest.raises(PartitionError):
            part.to_local(0, np.array([1]))

    def test_rejects_empty_rank(self):
        with pytest.raises(PartitionError, match="rank 1 owns no rows"):
            RowPartition(np.array([0, 0, 2, 2]), nparts=3)
        with pytest.raises(PartitionError, match="rank 1 owns no rows"):  # the first one
            RowPartition(np.array([0, 2, 0, 4]), nparts=5)

    @pytest.mark.parametrize("owner", [np.array([0.2, 1.9, 0.7, 1.0]),
                                       np.array([True, False, True])], ids=["float", "bool"])
    def test_rejects_a_non_integer_owner_map(self, owner):
        # truncating would read [0.2, 1.9, 0.7, 1.0] as a valid map, [0, 1, 0, 1]
        with pytest.raises(PartitionError, match="integer"):
            RowPartition(owner, 2)

    def test_rejects_a_two_dimensional_owner_map(self):
        with pytest.raises(PartitionError, match="1-D"):
            RowPartition(np.zeros((2, 3), dtype=np.int64), 1)

    def test_an_integer_list_is_an_owner_map(self):
        part = RowPartition([1, 0, 1])
        assert part.nparts == 2 and part.owner.dtype == np.int64
        assert part.sizes().tolist() == [1, 2]

    def test_sizes_is_a_copy(self):
        part = RowPartition(np.array([0, 1, 1]))
        part.sizes()[0] = 7
        assert part.sizes().tolist() == [1, 2]

    def test_from_matrix_single_part(self, poisson16):
        part = RowPartition.from_matrix(poisson16, 1)
        assert part.nparts == 1
        assert part.size_of(0) == poisson16.nrows

    def test_equality(self):
        a = RowPartition(np.array([0, 1, 0]))
        b = RowPartition(np.array([0, 1, 0]))
        c = RowPartition(np.array([1, 0, 0]))
        assert a == b
        assert a != c

    def test_equality_identity_shortcut_keeps_semantics(self, rng):
        # ``self is other`` answers the per-iteration guards without scanning
        # ``owner``; equal-but-distinct partitions still compare equal and
        # mismatched ones still raise at every guard
        a, b = RowPartition.contiguous(6, 2), RowPartition.contiguous(6, 2)
        assert a == a and a is not b and a == b and not (a != b)
        assert a.__eq__(object()) is NotImplemented
        x = DistVector.from_global(rng.standard_normal(6), a)
        y = DistVector.from_global(rng.standard_normal(6), b)
        assert np.isclose(x.dot(y), x.to_global() @ y.to_global())
        z = DistVector.zeros(RowPartition(np.array([0, 1, 0, 1, 0, 1])))
        for guarded in (x.dot, lambda v: x.xpay(v, 2.0), lambda v: x.axpy(2.0, v)):
            with pytest.raises(ShapeError):
                guarded(z)


class TestHaloSchedule:
    def test_from_pattern_identifies_halo_columns(self):
        # 4x4 matrix, ranks {0,1} own rows {0,1} and {2,3}
        mat = CSRMatrix.from_dense(
            np.array(
                [
                    [2.0, 1.0, 0.0, 0.0],
                    [1.0, 2.0, 1.0, 0.0],
                    [0.0, 1.0, 2.0, 1.0],
                    [0.0, 0.0, 1.0, 2.0],
                ]
            )
        )
        part = RowPartition(np.array([0, 0, 1, 1]))
        sched = HaloSchedule.from_pattern(SparsityPattern.from_csr(mat), part)
        assert sched.ext_cols[0].tolist() == [2]
        assert sched.ext_cols[1].tolist() == [1]
        assert sched.edges() == {(0, 1), (1, 0)}
        assert sched.total_halo_values() == 2

    def test_update_moves_correct_values(self, poisson16):
        part = RowPartition.from_matrix(poisson16, 4, seed=1)
        sched = HaloSchedule.from_pattern(SparsityPattern.from_csr(poisson16), part)
        x = np.arange(poisson16.nrows, dtype=np.float64)
        parts = [x[ids] for ids in part.global_ids]
        halos = sched.update(parts)
        for p in range(4):
            assert np.allclose(halos[p], x[sched.ext_cols[p]])

    def test_update_tracks_bytes(self, poisson16):
        part = RowPartition.from_matrix(poisson16, 4, seed=1)
        sched = HaloSchedule.from_pattern(SparsityPattern.from_csr(poisson16), part)
        tracker = CommTracker()
        parts = [np.zeros(part.size_of(p)) for p in range(4)]
        sched.update(parts, tracker)
        assert tracker.total_bytes == 8 * sched.total_halo_values()

    def test_equality_is_per_rank_columns(self, poisson16):
        part = RowPartition.from_matrix(poisson16, 3, seed=2)
        pat = SparsityPattern.from_csr(poisson16)
        assert HaloSchedule.from_pattern(pat, part) == HaloSchedule.from_pattern(pat, part)

    def test_rejects_owned_ext_cols(self):
        part = RowPartition(np.array([0, 1]))
        with pytest.raises(PartitionError):
            HaloSchedule(part, [np.array([0]), np.array([])])

    def test_rejects_unsorted_ext_cols(self):
        part = RowPartition(np.array([0, 1, 1]))
        with pytest.raises(PartitionError):
            HaloSchedule(part, [np.array([2, 1]), np.array([])])


class TestDistVector:
    def test_global_roundtrip(self, rng):
        part = RowPartition(np.array([2, 0, 1, 0, 2, 1]))
        x = rng.standard_normal(6)
        assert np.allclose(DistVector.from_global(x, part).to_global(), x)

    def test_dot_matches_global(self, rng):
        part = RowPartition.contiguous(20, 4)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        dx, dy = DistVector.from_global(x, part), DistVector.from_global(y, part)
        assert dx.dot(dy) == pytest.approx(float(x @ y))
        assert dx.norm2() == pytest.approx(float(np.linalg.norm(x)))

    def test_axpy_xpay_scale(self, rng):
        part = RowPartition.contiguous(10, 2)
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        dx, dy = DistVector.from_global(x, part), DistVector.from_global(y, part)
        dy.axpy(0.5, dx)
        assert np.allclose(dy.to_global(), y + 0.5 * x)
        dy2 = DistVector.from_global(y, part)
        dy2.xpay(dx, 2.0)
        assert np.allclose(dy2.to_global(), x + 2.0 * y)
        dx.scale(3.0)
        assert np.allclose(dx.to_global(), 3.0 * x)

    def test_partition_mismatch(self, rng):
        a = DistVector.from_global(rng.standard_normal(6), RowPartition.contiguous(6, 2))
        b = DistVector.from_global(rng.standard_normal(6), RowPartition.contiguous(6, 3))
        with pytest.raises(ShapeError):
            a.dot(b)

    def test_dot_records_allreduce(self, rng):
        part = RowPartition.contiguous(8, 2)
        x = DistVector.from_global(rng.standard_normal(8), part)
        tracker = CommTracker()
        x.dot(x, tracker)
        assert tracker.collective_calls["allreduce"] == 1

    def test_shape_validation(self):
        part = RowPartition.contiguous(4, 2)
        with pytest.raises(ShapeError):
            DistVector(part, [np.zeros(3), np.zeros(2)])
        with pytest.raises(ShapeError):
            DistVector.from_global(np.zeros(5), part)


class TestDistMatrix:
    def test_global_roundtrip(self, poisson16):
        part = RowPartition.from_matrix(poisson16, 4, seed=0)
        assert DistMatrix.from_global(poisson16, part).to_global().allclose(poisson16)

    def test_spmv_matches_serial(self, dist_poisson16, rng):
        mat, part, da, _ = dist_poisson16
        x = rng.standard_normal(mat.nrows)
        dx = DistVector.from_global(x, part)
        assert np.allclose(da.spmv(dx).to_global(), mat.spmv(x))

    def test_spmv_single_rank(self, poisson16, rng):
        part = RowPartition.from_matrix(poisson16, 1)
        da = DistMatrix.from_global(poisson16, part)
        x = rng.standard_normal(poisson16.nrows)
        assert np.allclose(
            da.spmv(DistVector.from_global(x, part)).to_global(), poisson16.spmv(x)
        )
        assert da.schedule.total_halo_values() == 0

    def test_local_column_layout(self, poisson16):
        part = RowPartition.from_matrix(poisson16, 3, seed=4)
        da = DistMatrix.from_global(poisson16, part)
        for lm in da.locals:
            assert lm.csr.shape == (lm.n_local, lm.n_local + lm.n_halo)
            assert lm.local_nnz() + lm.halo_nnz() == lm.nnz
            # a local column's global id is its owner's row
            if lm.n_local:
                assert lm.column_global_id(0) == lm.global_rows[0]
            if lm.n_halo:
                assert lm.column_global_id(lm.n_local) == lm.ext_cols[0]

    def test_nnz_per_rank_sums_to_total(self, dist_poisson16):
        mat, _, da, _ = dist_poisson16
        assert da.nnz_per_rank().sum() == mat.nnz

    def test_spmv_tracks_halo_traffic(self, dist_poisson16, rng):
        mat, part, da, _ = dist_poisson16
        tracker = CommTracker()
        da.spmv(DistVector.from_global(rng.standard_normal(mat.nrows), part), tracker)
        assert tracker.total_bytes == 8 * da.schedule.total_halo_values()
        assert tracker.edges() == da.schedule.edges()

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ShapeError):
            DistMatrix.from_global(random_sparse(rng, 4, 6), RowPartition.contiguous(4, 2))

    def test_rejects_partition_size_mismatch(self, poisson16):
        with pytest.raises(ShapeError):
            DistMatrix.from_global(poisson16, RowPartition.contiguous(10, 2))


def _ext_cols_per_row(partition, indptr, indices) -> list[np.ndarray]:
    """Reference halo columns: the per-row gather ``from_row_structure`` made
    until it became one pass over (rank, column) keys."""
    ext = []
    for p in range(partition.nparts):
        cols = [indices[indptr[g] : indptr[g + 1]] for g in partition.global_ids[p]]
        cols = np.unique(np.concatenate(cols)) if cols else np.empty(0, dtype=np.int64)
        ext.append(cols[partition.owner[cols] != p])
    return ext


def _local_block_per_row(mat, partition, p, ext) -> CSRMatrix:
    """Reference local block: one column map per rank, one stable argsort per
    row — ``DistMatrix.from_global`` before the ragged gather."""
    rows = partition.global_ids[p]
    col_map = np.full(mat.ncols, -1, dtype=np.int64)
    col_map[rows] = np.arange(rows.size)
    col_map[ext] = rows.size + np.arange(ext.size)
    indptr, indices, data = [0], [], []
    for g in rows:
        cols, vals = mat.row(g)
        local_cols = col_map[cols]
        order = np.argsort(local_cols, kind="stable")
        indices.extend(local_cols[order].tolist())
        data.extend(vals[order].tolist())
        indptr.append(len(indices))
    return CSRMatrix((rows.size, rows.size + ext.size), indptr, indices, data)


def _partition_allowing_empty_ranks(owner, nparts) -> RowPartition:
    """A ``RowPartition`` built past the constructor's no-empty-rank check —
    the construction code must not depend on that check."""
    part = RowPartition.__new__(RowPartition)
    part.owner = np.asarray(owner, dtype=np.int64)
    part.nparts = nparts
    part.global_ids, part.local_index = partition_arrays(part.owner, nparts)
    part._sizes = np.bincount(part.owner, minlength=nparts)
    return part


class TestConstructionAgainstPerRowReference:
    """The vectorised distribution is bitwise the per-row one."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("empty_rank", [False, True])
    def test_random_matrix_random_partition(self, seed, empty_rank):
        rng = np.random.default_rng(seed)
        n, nparts = int(rng.integers(5, 40)), int(rng.integers(1, 6))
        mat = random_sparse(rng, n, n, density=float(rng.uniform(0.05, 0.5)))
        owner = rng.integers(0, nparts, n)
        if empty_rank:
            nparts += 1  # the last rank owns nothing
        part = _partition_allowing_empty_ranks(owner, nparts)

        schedule = HaloSchedule.from_row_structure(part, mat.indptr, mat.indices)
        expected_ext = _ext_cols_per_row(part, mat.indptr, mat.indices)
        assert len(schedule.ext_cols) == nparts
        for got, want in zip(schedule.ext_cols, expected_ext):
            assert got.dtype == np.int64 and np.array_equal(got, want)

        dist = DistMatrix.from_global(mat, part)
        for p, lm in enumerate(dist.locals):
            want = _local_block_per_row(mat, part, p, expected_ext[p])
            assert lm.csr.shape == want.shape
            assert np.array_equal(lm.csr.indptr, want.indptr)
            assert np.array_equal(lm.csr.indices, want.indices)
            assert lm.csr.data.tobytes() == want.data.tobytes()
            assert np.array_equal(lm.global_rows, part.global_ids[p])
        assert dist.to_global() == mat

    def test_multilevel_partition_of_a_grid(self, dist_poisson16):
        mat, part, da, _ = dist_poisson16
        expected_ext = _ext_cols_per_row(part, mat.indptr, mat.indices)
        for p, lm in enumerate(da.locals):
            assert np.array_equal(lm.ext_cols, expected_ext[p])
            assert lm.csr == _local_block_per_row(mat, part, p, expected_ext[p])


class TestSPMD:
    def test_spmd_halo_equals_bsp(self, dist_poisson16, rng):
        mat, part, da, _ = dist_poisson16
        x = DistVector.from_global(rng.standard_normal(mat.nrows), part)
        bsp = da.schedule.update(x.parts)
        spmd = spmd_halo_update(da, x)
        for a, b in zip(bsp, spmd):
            assert np.allclose(a, b)

    def test_spmd_messages_match_schedule_edges(self, dist_poisson16, rng):
        mat, part, da, _ = dist_poisson16
        x = DistVector.from_global(rng.standard_normal(mat.nrows), part)
        tracker = CommTracker()
        spmd_halo_update(da, x, tracker)
        assert tracker.edges() == da.schedule.edges()
        assert tracker.total_bytes == 8 * da.schedule.total_halo_values()

    def test_spmd_cg_solves(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        sol, iters = spmd_cg(da, b, rtol=1e-8)
        x = sol.to_global()
        bg = b.to_global()
        assert np.linalg.norm(mat.spmv(x) - bg) <= 1.1e-8 * np.linalg.norm(bg)
        assert iters > 0
