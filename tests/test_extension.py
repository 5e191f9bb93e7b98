"""Unit tests for the cache-friendly pattern extension (Alg. 3).

The three invariants tested here are the heart of the paper:
1. every added entry's x operand shares a cache line with a base entry of
   the same row (cache friendliness);
2. LOCAL mode adds only local columns (FSAIE);
3. COMM mode adds halo entries only in already-received columns of rows
   already sent to the column's owner (communication invariance).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cachesim import doubles_per_line
from repro.core import ExtensionMode, extend_dist_pattern, fsai_pattern
from repro.dist import DistMatrix, HaloSchedule, RowPartition
from repro.matgen import poisson2d, poisson3d


@pytest.fixture
def dist_pattern():
    mat = poisson2d(20)
    part = RowPartition.from_matrix(mat, 4, seed=5)
    base = fsai_pattern(mat)
    return mat, part, base, DistMatrix.from_global(base.to_csr(), part)


def union_pattern(base, ext):
    from repro.core.precond import _union_with_entries

    return _union_with_entries(base, ext.rows, ext.cols)[0]


def per_rank(ext):
    """``(rank, rows, cols)`` of each rank's additions."""
    bounds = ext.offsets.tolist()
    for p, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        yield p, ext.rows[lo:hi], ext.cols[lo:hi]


class TestBasicProperties:
    @pytest.mark.parametrize("mode", [ExtensionMode.LOCAL, ExtensionMode.COMM])
    def test_added_entries_are_new_and_strictly_lower(self, dist_pattern, mode):
        _, _, base, dist = dist_pattern
        ext = extend_dist_pattern(dist, 64, mode)
        for i, j in zip(ext.rows, ext.cols):
            assert j < i  # strictly lower triangular
            assert not base.contains(int(i), int(j))  # genuinely new

    @pytest.mark.parametrize("mode", [ExtensionMode.LOCAL, ExtensionMode.COMM])
    def test_rows_belong_to_their_rank(self, dist_pattern, mode):
        _, part, _, dist = dist_pattern
        for p, rows, _ in per_rank(extend_dist_pattern(dist, 64, mode)):
            assert np.all(part.owner[rows] == p)

    def test_comm_superset_of_local(self, dist_pattern):
        _, _, _, dist = dist_pattern
        local = extend_dist_pattern(dist, 64, ExtensionMode.LOCAL)
        comm = extend_dist_pattern(dist, 64, ExtensionMode.COMM)
        for (_, lrows, lcols), (_, crows, ccols) in zip(per_rank(local), per_rank(comm)):
            local_set = set(zip(lrows.tolist(), lcols.tolist()))
            comm_set = set(zip(crows.tolist(), ccols.tolist()))
            assert local_set <= comm_set
        # same local additions
        assert np.array_equal(comm.n_local_added, np.diff(local.offsets))

    def test_local_mode_adds_no_halo(self, dist_pattern):
        _, _, _, dist = dist_pattern
        assert not extend_dist_pattern(dist, 64, ExtensionMode.LOCAL).n_halo_added.any()

    def test_comm_mode_adds_halo_somewhere(self, dist_pattern):
        _, _, _, dist = dist_pattern
        total_halo = extend_dist_pattern(dist, 64, ExtensionMode.COMM).n_halo_added.sum()
        assert total_halo > 0  # a 4-way grid partition has eligible halo cells

    def test_one_value_per_line_adds_nothing(self, dist_pattern):
        _, _, _, dist = dist_pattern
        ext = extend_dist_pattern(dist, 8, ExtensionMode.COMM)
        assert ext.n_added == 0 and not ext.offsets.any()

    def test_larger_lines_add_more(self, dist_pattern):
        _, _, _, dist = dist_pattern
        small = extend_dist_pattern(dist, 64, ExtensionMode.COMM).n_added
        large = extend_dist_pattern(dist, 256, ExtensionMode.COMM).n_added
        assert large > small


class TestCacheFriendliness:
    @pytest.mark.parametrize("line_bytes", [64, 256])
    def test_every_added_entry_shares_a_line_with_base(self, dist_pattern, line_bytes):
        _, part, _, dist = dist_pattern
        dpl = doubles_per_line(line_bytes)
        for p, added_rows, added_cols in per_rank(
                extend_dist_pattern(dist, line_bytes, ExtensionMode.COMM)):
            lm = dist.locals[p]
            col_global = np.concatenate([lm.global_rows, lm.ext_cols])
            # local position of each global column id
            pos_of = {int(g): k for k, g in enumerate(col_global)}
            for gi, gj in zip(added_rows, added_cols):
                li = int(part.local_index[gi])
                cols = lm.csr.row(li)[0]
                lines = set((col // dpl) for col in cols.tolist())
                assert pos_of[int(gj)] // dpl in lines


class TestCommAwareness:
    def test_halo_additions_only_in_received_columns(self, dist_pattern):
        _, part, _, dist = dist_pattern
        for p, _, added_cols in per_rank(extend_dist_pattern(dist, 64, ExtensionMode.COMM)):
            lm = dist.locals[p]
            ext_col_set = set(lm.ext_cols.tolist())
            local_set = set(lm.global_rows.tolist())
            for gj in added_cols.tolist():
                assert gj in ext_col_set or gj in local_set

    def test_halo_additions_only_in_sent_rows(self, dist_pattern):
        _, part, _, dist = dist_pattern
        for p, added_rows, added_cols in per_rank(
                extend_dist_pattern(dist, 64, ExtensionMode.COMM)):
            lm = dist.locals[p]
            n_local = lm.n_local
            # rows sent to q: rows with an existing halo entry owned by q
            sent: dict[int, set[int]] = {}
            for li in range(n_local):
                cols = lm.csr.row(li)[0]
                for c in cols[cols >= n_local].tolist():
                    q = int(part.owner[lm.ext_cols[c - n_local]])
                    sent.setdefault(q, set()).add(int(lm.global_rows[li]))
            for gi, gj in zip(added_rows.tolist(), added_cols.tolist()):
                if part.owner[gj] != p:  # halo addition
                    q = int(part.owner[gj])
                    assert gi in sent.get(q, set())

    @pytest.mark.parametrize("mode", [ExtensionMode.LOCAL, ExtensionMode.COMM])
    def test_halo_schedule_unchanged_by_extension(self, dist_pattern, mode):
        """The paper's guarantee at the pattern level, for G and Gᵀ."""
        _, part, base, dist = dist_pattern
        extended = union_pattern(base, extend_dist_pattern(dist, 64, mode))
        assert HaloSchedule.from_pattern(extended, part) == HaloSchedule.from_pattern(
            base, part
        )
        assert HaloSchedule.from_pattern(
            extended.transpose(), part
        ) == HaloSchedule.from_pattern(base.transpose(), part)

    def test_unconstrained_fill_would_change_schedule(self, dist_pattern):
        """Sanity of the test above: violating the rule does change comms."""
        mat, part, base, _ = dist_pattern
        # add the full lower triangle of A² — ignores communication entirely
        from repro.core import FSAIOptions

        wide = fsai_pattern(mat, FSAIOptions(level=2))
        assert HaloSchedule.from_pattern(wide, part) != HaloSchedule.from_pattern(
            base, part
        )

    def test_single_rank_has_no_halo(self):
        mat = poisson3d(6)
        part = RowPartition.from_matrix(mat, 1)
        base = fsai_pattern(mat)
        dist = DistMatrix.from_global(base.to_csr(), part)
        ext = extend_dist_pattern(dist, 64, ExtensionMode.COMM)
        assert ext.offsets.tolist() == [0, ext.n_added]
        assert ext.n_halo_added.tolist() == [0]
        assert ext.n_local_added[0] > 0
