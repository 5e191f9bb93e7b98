"""The row distribution, built for every rank at once, is bitwise the
per-rank construction it replaced (``tests/dist_oracle.py``).

``RowPartition``, ``HaloSchedule.from_row_structure`` and
``DistMatrix.from_global`` must reproduce every array of the oracle — the
same values, dtypes and shapes — every dict with its keys in the same
order, and every block's ``data`` as a view of the matrix's one value
array, rank after rank.  The halo schedule carries the paper's
communication-invariance guarantee (§4), so its lists are compared in
full, not through ``HaloSchedule.__eq__``.
"""

from __future__ import annotations

import numpy as np
import pytest

import dist_oracle as oracle
from repro.core import build_fsai, build_fsaie_comm, check_comm_invariance
from repro.dist import DistMatrix, HaloSchedule, RowPartition
from repro.errors import PartitionError
from repro.matgen import poisson2d
from repro.partition import block_partition_2d, graph_from_matrix, partition_graph
from repro.sparse import CSRMatrix


def same(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality: dtype, shape and every byte."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_dicts(got: list[dict], want: list[dict]) -> None:
    assert len(got) == len(want)
    for p, (g, w) in enumerate(zip(got, want)):
        assert list(g) == list(w), f"rank {p}: keys {list(g)} != {list(w)}"
        for q in w:
            assert same(g[q], w[q]), f"rank {p}, peer {q}"


def assert_same_partition(part: RowPartition) -> None:
    global_ids, local_index = oracle.partition_arrays(part.owner, part.nparts)
    assert len(part.global_ids) == len(global_ids)
    for got, want in zip(part.global_ids, global_ids):
        assert same(got, want)
    assert same(part.local_index, local_index)
    assert same(part.sizes(), np.array([ids.size for ids in global_ids], dtype=np.int64))


def assert_same_schedule(schedule: HaloSchedule, part: RowPartition, mat: CSRMatrix) -> None:
    ext = oracle.ext_cols(part, mat.indptr, mat.indices)
    want = oracle.schedule_lists(part, ext)
    assert len(schedule.ext_cols) == len(ext)
    for got, cols in zip(schedule.ext_cols, ext):
        assert same(got, cols)
    for name in ("recv_from", "recv_pos", "send_to", "recv_src"):
        assert_same_dicts(getattr(schedule, name), want[name])


def assert_same_distribution(dmat: DistMatrix, mat: CSRMatrix) -> None:
    part = dmat.partition
    assert_same_partition(part)
    assert_same_schedule(dmat.schedule, part, mat)
    blocks, values = oracle.local_blocks(mat, part, dmat.schedule.ext_cols)
    assert same(dmat._values, values)
    offset = 0
    for p, (lm, (indptr, indices, data, rows, ext)) in enumerate(zip(dmat.locals, blocks)):
        assert lm.rank == p
        assert lm.csr.shape == (rows.size, rows.size + ext.size)
        for got, want in ((lm.csr.indptr, indptr), (lm.csr.indices, indices),
                          (lm.csr.data, data), (lm.global_rows, rows), (lm.ext_cols, ext)):
            assert same(got, want), f"rank {p}"
        # each block's values are the next slice of the one array (NumPy
        # gives an empty slice the base's start address)
        assert lm.csr.data.base is dmat._values
        if lm.csr.data.size:
            assert lm.csr.data.ctypes.data == dmat._values.ctypes.data + 8 * offset
        offset += lm.csr.data.size
    assert offset == dmat._values.size


def stacked_per_rank(dmat: DistMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The operator's ``(indptr, indices)``, remapped one rank at a time."""
    nrows, halo_offsets = dmat.shape[0], dmat.schedule.halo_offsets
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(lm.csr.indptr) for lm in dmat.locals]), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    row, pos = 0, 0
    for lm, halo_start in zip(dmat.locals, halo_offsets.tolist()):
        cols, end = lm.csr.indices, pos + lm.nnz
        out = indices[pos:end]
        np.add(cols, row, out=out)
        out[cols >= lm.n_local] += nrows + halo_start - row - lm.n_local
        row, pos = row + lm.n_local, end
    return indptr, indices


def check(mat: CSRMatrix, part: RowPartition) -> DistMatrix:
    dmat = DistMatrix.from_global(mat, part)
    assert_same_distribution(dmat, mat)
    assert_same_schedule(HaloSchedule.from_row_structure(part, mat.indptr, mat.indices),
                         part, mat)
    stacked = dmat.operator().mat
    indptr, indices = stacked_per_rank(dmat)
    assert same(stacked.indptr, indptr) and same(stacked.indices, indices)
    assert stacked.data is dmat._values
    return dmat


def block_diagonal(*blocks: CSRMatrix) -> CSRMatrix:
    rows, cols, vals, at = [], [], [], 0
    for b in blocks:
        r, c, v = b.to_coo()
        rows.append(r + at), cols.append(c + at), vals.append(v)
        at += b.nrows
    return CSRMatrix.from_coo((at, at), np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))


def without_row(mat: CSRMatrix, row: int) -> CSRMatrix:
    r, c, v = mat.to_coo()
    keep = r != row
    return CSRMatrix.from_coo(mat.shape, r[keep], c[keep], v[keep])


class TestAgainstThePerRankOracle:
    def test_contiguous_strips(self):
        mat = poisson2d(12)
        for nparts in (1, 2, 5, 12):
            check(mat, RowPartition.contiguous(mat.nrows, nparts))

    def test_block_partition_on_16_by_16_ranks(self):
        mat = poisson2d(48)
        check(mat, RowPartition(block_partition_2d(48, 48, 16, 16), 256))

    def test_a_graph_partition_is_not_contiguous(self):
        mat = poisson2d(20)
        owner = partition_graph(graph_from_matrix(mat), 7, seed=3)
        assert np.any(np.diff(owner) < 0)
        check(mat, RowPartition(owner, 7))

    def test_a_matrix_with_an_empty_row(self):
        mat = without_row(poisson2d(10), 37)
        assert mat.row_nnz()[37] == 0
        check(mat, RowPartition.contiguous(mat.nrows, 4))
        check(mat, RowPartition(block_partition_2d(10, 10, 2, 2), 4))

    def test_a_rank_with_no_halo(self):
        mat = block_diagonal(poisson2d(4), poisson2d(6))
        owner = np.r_[np.zeros(16, dtype=np.int64), block_partition_2d(6, 6, 3, 1) + 1]
        dmat = check(mat, RowPartition(owner, 4))
        assert dmat.schedule.ext_cols[0].size == 0 and dmat.schedule.recv_from[0] == {}
        assert dmat.schedule.ext_cols[1].size > 0

    def test_a_disconnected_matrix_across_ranks(self):
        mat = block_diagonal(poisson2d(5), poisson2d(3), poisson2d(4))
        rng = np.random.default_rng(11)
        check(mat, RowPartition(rng.permutation(np.arange(mat.nrows) % 6), 6))
        check(mat, RowPartition.contiguous(mat.nrows, 6))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrix_random_owner_map(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        nparts = int(rng.integers(1, 7))
        dense = np.where(rng.random((n, n)) < rng.uniform(0.02, 0.4),
                         rng.standard_normal((n, n)), 0.0)
        mat = CSRMatrix.from_dense(dense, tol=0.0)
        owner = np.r_[np.arange(nparts), rng.integers(0, nparts, n - nparts)]
        check(mat, RowPartition(rng.permutation(owner), nparts))

    def test_g_and_gt_of_an_fsaie_comm_factor(self):
        mat = poisson2d(24)
        part = RowPartition(block_partition_2d(24, 24, 4, 4), 16)
        base, comm = build_fsai(mat, part), build_fsaie_comm(mat, part)
        for dmat in (comm.g, comm.gt, base.g, base.gt):
            global_ = dmat.to_global()
            assert_same_distribution(DistMatrix.from_global(global_, part), global_)
            assert_same_distribution(dmat, global_)
        assert check_comm_invariance(base, comm)


class TestCallerSuppliedHaloColumns:
    """``HaloSchedule.__init__`` checks every rank at once and names the
    first bad one, with the checks in the order a rank runs them."""

    part = RowPartition(np.array([0, 0, 1, 1, 2, 2]))

    @pytest.mark.parametrize("ext, message", [
        ([[], [0, 0], [1]], "rank 1: ext_cols must be strictly increasing"),
        ([[], [1, 0, 4], [0, 2]], "rank 1: ext_cols must be strictly increasing"),
        ([[2], [1, 2], [3, 1]], "rank 1: ext_cols contains owned columns"),
        ([[0], [3, 1], []], "rank 0: ext_cols contains owned columns"),
        ([[3, 2], [1, 2], []], "rank 0: ext_cols must be strictly increasing"),
        ([[3, 4], [0], [5, 1]], "rank 2: ext_cols must be strictly increasing"),
    ])
    def test_the_first_bad_rank_is_named(self, ext, message):
        with pytest.raises(PartitionError, match=message):
            HaloSchedule(self.part, [np.array(c, dtype=np.int64) for c in ext])

    def test_a_valid_schedule_equals_the_oracle(self):
        ext = [np.array(c, dtype=np.int64) for c in ([2, 5], [0, 4], [1, 3])]
        schedule = HaloSchedule(self.part, ext)
        want = oracle.schedule_lists(self.part, ext)
        for name in ("recv_from", "recv_pos", "send_to", "recv_src"):
            assert_same_dicts(getattr(schedule, name), want[name])
