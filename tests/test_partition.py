"""Unit tests for the graph type and the multilevel partitioner."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.instrument import tracing
from repro.matgen import poisson2d, poisson3d
from repro.partition import (
    Graph,
    block_partition_2d,
    graph_from_matrix,
    partition_graph,
    partition_matrix,
    strip_partition,
)
from repro.partition.geometric import balanced_chunks
from repro.partition.graph import graph_from_pattern
from repro.partition.multilevel import bisect
from repro.partition.coarsen import coarsen_once, contract, heavy_edge_matching
from repro.partition.refine import fm_refine
from repro.sparse import SparsityPattern

from conftest import random_sparse


def path_graph(n: int) -> Graph:
    """0—1—2—…—(n−1)."""
    xadj = [0]
    adj = []
    for v in range(n):
        nbrs = [u for u in (v - 1, v + 1) if 0 <= u < n]
        adj.extend(nbrs)
        xadj.append(len(adj))
    return Graph(xadj, adj)


class TestGraph:
    def test_from_pattern_symmetrizes_and_drops_diagonal(self, rng):
        mat = random_sparse(rng, 10, 10)
        g = graph_from_matrix(mat)
        assert g.num_vertices == 10
        rows = np.repeat(np.arange(10), np.diff(g.xadj))
        assert not np.any(rows == g.adjncy)  # no self loops
        # symmetric adjacency
        edges = set(zip(rows.tolist(), g.adjncy.tolist()))
        assert all((b, a) in edges for a, b in edges)

    def test_rejects_rectangular(self, rng):
        with pytest.raises(PartitionError):
            graph_from_pattern(SparsityPattern.from_csr(random_sparse(rng, 3, 5)))

    def test_edge_cut(self):
        g = path_graph(4)
        assert g.edge_cut(np.array([0, 0, 1, 1])) == 1
        assert g.edge_cut(np.array([0, 1, 0, 1])) == 3

    def test_rejects_self_loop(self):
        with pytest.raises(PartitionError):
            Graph([0, 1], [0])

    def test_degree_and_neighbours(self):
        g = path_graph(3)
        assert g.degree(0) == 1
        assert g.degree(1) == 2
        assert g.neighbours(1).tolist() == [0, 2]


class TestCoarsening:
    def test_matching_is_valid(self):
        g = graph_from_matrix(poisson2d(8))
        match = heavy_edge_matching(g, np.random.default_rng(0))
        for v in range(g.num_vertices):
            u = match[v]
            assert match[u] == v  # symmetric
            if u != v:
                assert u in g.neighbours(v)

    def test_contract_preserves_weight(self):
        g = graph_from_matrix(poisson2d(8))
        match = heavy_edge_matching(g, np.random.default_rng(0))
        coarse, cmap = contract(g, match)
        assert coarse.total_vertex_weight() == g.total_vertex_weight()
        assert cmap.min() == 0 and cmap.max() == coarse.num_vertices - 1

    def test_contract_halves_path(self):
        g = path_graph(8)
        match = heavy_edge_matching(g, np.random.default_rng(0))
        coarse, _ = contract(g, match)
        assert coarse.num_vertices < 8

    def test_coarsen_once_stops_on_edgeless_graph(self):
        g = Graph([0, 0, 0], [])  # two isolated vertices
        assert coarsen_once(g, np.random.default_rng(0)) is None


class TestRefinement:
    def test_fm_improves_bad_bisection(self):
        g = graph_from_matrix(poisson2d(10))
        rng = np.random.default_rng(0)
        bad = rng.integers(0, 2, g.num_vertices)  # random: terrible cut
        # make it balanced-ish before refining
        refined = fm_refine(g, bad)
        assert g.edge_cut(refined) <= g.edge_cut(bad)

    def test_fm_keeps_balance(self):
        g = graph_from_matrix(poisson2d(10))
        part = strip_partition(100, 2)
        refined = fm_refine(g, part, max_imbalance=1.05)
        sides = np.bincount(refined, weights=g.vwgt, minlength=2)
        assert sides.max() / (sides.sum() / 2) <= 1.06

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 12), st.floats(0.2, 0.8), st.integers(0, 2**31 - 1))
    def test_fm_never_worsens_an_admissible_input(self, n, share, seed):
        """Any bisection that already meets an (uneven) target within the cap
        comes back within the cap and with a cut no larger."""
        g = graph_from_matrix(poisson2d(n))
        total = g.num_vertices
        target = (max(1, round(share * total)), total - max(1, round(share * total)))
        part = np.ones(total, dtype=np.int64)
        part[np.random.default_rng(seed).permutation(total)[: target[0]]] = 0
        refined = fm_refine(g, part, target=target, max_imbalance=1.05)
        assert g.edge_cut(refined) <= g.edge_cut(part)
        sizes = np.bincount(refined, minlength=2)
        assert sizes[0] <= max(1.0, 1.05 * target[0])
        assert sizes[1] <= max(1.0, 1.05 * target[1])

    def test_fm_respects_uneven_targets(self):
        g = graph_from_matrix(poisson2d(12))
        part = strip_partition(144, 2)  # 72 / 72, far from the 36 / 108 target
        refined = fm_refine(g, part, target=(36, 108), max_imbalance=1.05)
        sizes = np.bincount(refined, minlength=2)
        assert sizes[0] <= 1.05 * 36 and sizes[1] <= 1.05 * 108

    def test_fm_is_deterministic(self):
        g = graph_from_matrix(poisson2d(12))
        part = np.random.default_rng(5).integers(0, 2, g.num_vertices)
        assert np.array_equal(fm_refine(g, part), fm_refine(g, part))

    def test_fm_survives_disconnected_and_edgeless_graphs(self):
        two_paths = Graph([0, 1, 3, 4, 5, 7, 8], [1, 0, 2, 1, 4, 3, 5, 4])
        part = np.array([0, 1, 0, 1, 0, 1])
        refined = fm_refine(two_paths, part)
        assert two_paths.edge_cut(refined) <= two_paths.edge_cut(part)
        assert np.bincount(refined, minlength=2).tolist() == [3, 3]
        edgeless = Graph([0, 0, 0, 0, 0], [])
        part = np.array([0, 0, 1, 1])
        assert np.array_equal(fm_refine(edgeless, part), part)

    def test_fm_moves_boundary_vertices_only(self):
        """Work count: a pass queues the boundary, not every vertex, and gives
        up after a bounded run of fruitless moves — far fewer than ``n`` moves
        (the all-vertex FM this replaced moved ≈ n per pass and rolled back)."""
        g = graph_from_matrix(poisson3d(16))
        n = g.num_vertices
        with tracing() as (_, metrics):
            refined = fm_refine(g, strip_partition(n, 2))
        moves = metrics.value("partition.fm.moves")
        passes = metrics.value("partition.fm.passes")
        assert 1 <= passes <= 4
        assert 0 < moves < 0.25 * n
        assert g.edge_cut(refined) <= 16 * 16


class TestMultilevel:
    def test_bisection_of_grid_is_near_optimal(self):
        n = 16
        g = graph_from_matrix(poisson2d(n))
        part = bisect(g, rng=np.random.default_rng(1))
        # optimal cut is n; accept a small slack
        assert g.edge_cut(part) <= 2 * n
        counts = np.bincount(part)
        assert counts.max() <= 1.06 * g.num_vertices / 2

    @pytest.mark.parametrize("nparts", [1, 2, 3, 5, 8])
    def test_partition_matrix_balanced(self, nparts):
        mat = poisson2d(14)
        part = partition_matrix(mat, nparts, seed=3)
        counts = np.bincount(part, minlength=nparts)
        assert counts.min() > 0
        assert counts.max() / counts.mean() <= 1.05
        assert set(np.unique(part)) == set(range(nparts))

    @pytest.mark.parametrize(
        "mat, nparts",
        [
            (poisson2d(96), 64),  # the scaling/conformance ladders' shape
            (poisson3d(16), 8),
            (poisson3d(12), 3),  # uneven splits
            (poisson2d(64), 5),
        ],
        ids=["poisson2d96-64", "poisson3d16-8", "poisson3d12-3", "poisson2d64-5"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_kway_imbalance_within_bound(self, mat, nparts, seed):
        """``max_imbalance`` bounds the k-way result (max part / mean part),
        not just each bisection: the slack does not compound over levels."""
        part = partition_graph(graph_from_matrix(mat), nparts, seed=seed, max_imbalance=1.05)
        counts = np.bincount(part, minlength=nparts)
        assert counts.max() / counts.mean() <= 1.05

    def test_partition_graph_rejects_bad_counts(self):
        g = path_graph(4)
        with pytest.raises(PartitionError):
            partition_graph(g, 0)
        with pytest.raises(PartitionError):
            partition_graph(g, 5)

    def test_partition_deterministic_for_seed(self):
        mat = poisson2d(12)
        a = partition_matrix(mat, 4, seed=9)
        b = partition_matrix(mat, 4, seed=9)
        assert np.array_equal(a, b)

    def test_partition_cut_beats_random(self):
        mat = poisson2d(16)
        g = graph_from_matrix(mat)
        part = partition_matrix(mat, 4, seed=0)
        rng = np.random.default_rng(0)
        random_part = rng.integers(0, 4, g.num_vertices)
        assert g.edge_cut(part) < g.edge_cut(random_part) / 3


class TestGeometric:
    def test_balanced_chunks(self):
        assert balanced_chunks(10, 3).tolist() == [4, 3, 3]
        assert balanced_chunks(9, 3).tolist() == [3, 3, 3]
        with pytest.raises(PartitionError):
            balanced_chunks(2, 3)

    def test_strip_partition(self):
        part = strip_partition(10, 3)
        assert part.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_block_partition_2d_shape(self):
        part = block_partition_2d(4, 6, 2, 3)
        assert part.size == 24
        counts = np.bincount(part, minlength=6)
        assert counts.tolist() == [4] * 6

    def test_block_partition_2d_contiguous_blocks(self):
        part = block_partition_2d(4, 4, 2, 2).reshape(4, 4)
        assert part[0, 0] == part[1, 1]
        assert part[0, 0] != part[3, 3]

    def test_block_partition_rejects_oversubscription(self):
        with pytest.raises(PartitionError):
            block_partition_2d(2, 2, 3, 1)


class TestWeightedPartitioning:
    def _skewed_matrix(self):
        """Half the rows sparse (circuit), half dense (banded), connected."""
        from repro.matgen import banded_spd, circuit_laplacian
        from repro.sparse import CSRMatrix

        a = circuit_laplacian(300, avg_degree=3, seed=2)
        b = banded_spd(300, 20, seed=3)
        ra, ca, va = a.to_coo()
        rb, cb, vb = b.to_coo()
        rows = np.concatenate([ra, rb + 300, [299, 300, 299, 300]])
        cols = np.concatenate([ca, cb + 300, [300, 299, 299, 300]])
        vals = np.concatenate([va, vb, [-0.1, -0.1, 0.2, 0.2]])
        return CSRMatrix.from_coo((600, 600), rows, cols, vals)

    def test_nnz_weighting_balances_work(self):
        mat = self._skewed_matrix()
        rows_part = partition_matrix(mat, 4, seed=1, weight_by_nnz=False)
        nnz_part = partition_matrix(mat, 4, seed=1, weight_by_nnz=True)

        def nnz_imbalance(part):
            per = np.array(
                [mat.row_nnz()[part == p].sum() for p in range(4)], dtype=float
            )
            return per.max() / per.mean()

        assert nnz_imbalance(nnz_part) < nnz_imbalance(rows_part)
        assert nnz_imbalance(nnz_part) < 1.3

    def test_weighted_graph_total(self):
        mat = self._skewed_matrix()
        g = graph_from_matrix(mat, weight_by_nnz=True)
        assert g.total_vertex_weight() == mat.nnz

    def test_row_partition_from_matrix_weighted(self):
        from repro.dist import RowPartition

        mat = self._skewed_matrix()
        part = RowPartition.from_matrix(mat, 3, seed=0, weight_by_nnz=True)
        per = np.array(
            [mat.row_nnz()[part.global_ids[p]].sum() for p in range(3)], dtype=float
        )
        assert per.max() / per.mean() < 1.3
