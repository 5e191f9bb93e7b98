"""Unit tests for RCM ordering and symmetric permutations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.matgen import circuit_laplacian, poisson2d
from repro.order import bandwidth, permute_symmetric, rcm_ordering
from repro.order.permute import inverse_permutation
from repro.sparse import CSRMatrix

from conftest import random_sparse


class TestPermutations:
    def test_inverse_permutation(self, rng):
        perm = rng.permutation(20)
        inv = inverse_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(20))
        assert np.array_equal(inv[perm], np.arange(20))

    def test_permute_symmetric_matches_dense(self, small_spd, rng):
        perm = rng.permutation(small_spd.nrows)
        permuted = permute_symmetric(small_spd, perm)
        dense = small_spd.to_dense()
        assert np.allclose(permuted.to_dense(), dense[np.ix_(perm, perm)])

    def test_permuted_spmv_equivalence(self, small_spd, rng):
        perm = rng.permutation(small_spd.nrows)
        permuted = permute_symmetric(small_spd, perm)
        x = rng.standard_normal(small_spd.nrows)
        direct = small_spd.spmv(x)
        via_perm = permuted.spmv(x[perm])[inverse_permutation(perm)]
        assert np.allclose(direct, via_perm)

    def test_permutation_preserves_spd(self, small_spd, rng):
        from repro.sparse.ops import is_symmetric

        perm = rng.permutation(small_spd.nrows)
        permuted = permute_symmetric(small_spd, perm)
        assert is_symmetric(permuted)
        assert np.linalg.eigvalsh(permuted.to_dense()).min() > 0

    def test_rejects_bad_permutation(self, small_spd):
        with pytest.raises(ShapeError):
            permute_symmetric(small_spd, np.zeros(small_spd.nrows, dtype=int))
        with pytest.raises(ShapeError):
            permute_symmetric(small_spd, np.arange(small_spd.nrows + 1))

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ShapeError):
            permute_symmetric(random_sparse(rng, 3, 5), np.arange(3))


class TestRCM:
    def test_result_is_a_permutation(self, poisson16):
        perm = rcm_ordering(poisson16)
        assert np.array_equal(np.sort(perm), np.arange(poisson16.nrows))

    def test_reduces_bandwidth_of_shuffled_grid(self, rng):
        mat = poisson2d(14)
        shuffled = permute_symmetric(mat, rng.permutation(mat.nrows))
        reordered = permute_symmetric(shuffled, rcm_ordering(shuffled))
        assert bandwidth(reordered) < bandwidth(shuffled) / 2
        # a grid's optimal bandwidth is its width; RCM should get close
        assert bandwidth(reordered) <= 3 * 14

    def test_identity_on_diagonal_matrix(self):
        mat = CSRMatrix.identity(6)
        perm = rcm_ordering(mat)
        assert np.array_equal(np.sort(perm), np.arange(6))
        assert bandwidth(permute_symmetric(mat, perm)) == 0

    def test_disconnected_components(self):
        # two disjoint paths: 0-1-2 and 3-4
        dense = np.eye(5) * 2
        for a, b in ((0, 1), (1, 2), (3, 4)):
            dense[a, b] = dense[b, a] = -1
        perm = rcm_ordering(CSRMatrix.from_dense(dense))
        assert np.array_equal(np.sort(perm), np.arange(5))

    def test_bandwidth_helper(self):
        mat = CSRMatrix.from_coo((4, 4), [0, 3, 2], [0, 0, 2], [1.0, 1.0, 1.0])
        assert bandwidth(mat) == 3
        assert bandwidth(CSRMatrix.zeros((3, 3))) == 0

    def test_rcm_improves_circuit_matrix(self):
        mat = circuit_laplacian(300, seed=5)
        reordered = permute_symmetric(mat, rcm_ordering(mat))
        assert bandwidth(reordered) < bandwidth(mat)

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ShapeError):
            rcm_ordering(random_sparse(rng, 3, 5))


class TestOrderingInteraction:
    def test_rcm_keeps_fsai_solvable(self, rng):
        """The full pipeline works identically on a reordered system."""
        from repro.core import build_fsaie_comm, pcg
        from repro.dist import DistMatrix, DistVector, RowPartition
        from repro.matgen import paper_rhs

        mat = poisson2d(12)
        perm = rcm_ordering(permute_symmetric(mat, rng.permutation(mat.nrows)))
        # solve the shuffled-then-RCM system
        shuffled = permute_symmetric(mat, rng.permutation(mat.nrows))
        reordered = permute_symmetric(shuffled, rcm_ordering(shuffled))
        part = RowPartition.from_matrix(reordered, 3, seed=0)
        da = DistMatrix.from_global(reordered, part)
        b = DistVector.from_global(paper_rhs(reordered, 0), part)
        pre = build_fsaie_comm(reordered, part)
        res = pcg(da, b, precond=pre.apply)
        assert res.converged
        del perm
