"""Unit tests for sparsity patterns and the pattern algebra."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError, SparseFormatError
from repro.sparse import (
    CSRMatrix,
    SparsityPattern,
    power_pattern,
    threshold_pattern,
)

from conftest import random_sparse


def pattern_of(rng, n=10, density=0.3) -> SparsityPattern:
    return SparsityPattern.from_csr(random_sparse(rng, n, n, density))


class TestConstruction:
    def test_from_csr(self, rng):
        mat = random_sparse(rng, 6, 8)
        pat = SparsityPattern.from_csr(mat)
        assert pat.shape == mat.shape
        assert pat.nnz == mat.nnz

    def test_from_rows_sorts_and_dedupes(self):
        pat = SparsityPattern.from_rows((2, 5), [[3, 1, 3], [0]])
        assert pat.row(0).tolist() == [1, 3]
        assert pat.row(1).tolist() == [0]

    def test_from_rows_out_of_range(self):
        with pytest.raises(SparseFormatError):
            SparsityPattern.from_rows((1, 3), [[4]])

    def test_from_rows_wrong_count(self):
        with pytest.raises(ShapeError):
            SparsityPattern.from_rows((2, 3), [[0]])

    def test_identity_and_empty(self):
        eye = SparsityPattern.identity(4)
        assert eye.nnz == 4
        assert all(eye.contains(i, i) for i in range(4))
        empty = SparsityPattern.empty((3, 3))
        assert empty.nnz == 0

    def test_validation(self):
        with pytest.raises(SparseFormatError):
            SparsityPattern((2, 2), [0, 2, 2], [1, 0])  # unsorted row


class TestSetAlgebra:
    def test_union_against_dense(self, rng):
        a, b = pattern_of(rng), pattern_of(rng)
        da = a.to_csr().to_dense() != 0
        db = b.to_csr().to_dense() != 0
        u = a.union(b)
        assert np.array_equal(u.to_csr().to_dense() != 0, da | db)

    def test_intersection_against_dense(self, rng):
        a, b = pattern_of(rng), pattern_of(rng)
        da = a.to_csr().to_dense() != 0
        db = b.to_csr().to_dense() != 0
        i = a.intersection(b)
        assert np.array_equal(i.to_csr().to_dense() != 0, da & db)

    def test_difference_against_dense(self, rng):
        a, b = pattern_of(rng), pattern_of(rng)
        da = a.to_csr().to_dense() != 0
        db = b.to_csr().to_dense() != 0
        d = a.difference(b)
        assert np.array_equal(d.to_csr().to_dense() != 0, da & ~db)

    def test_union_idempotent(self, rng):
        a = pattern_of(rng)
        assert a.union(a) == a

    def test_issubset(self, rng):
        a = pattern_of(rng)
        b = pattern_of(rng)
        assert a.issubset(a.union(b))
        assert a.intersection(b).issubset(a)

    def test_shape_mismatch(self, rng):
        a = pattern_of(rng, 5)
        b = pattern_of(rng, 6)
        with pytest.raises(ShapeError):
            a.union(b)


class TestStructuralOps:
    def test_lower(self, rng):
        a = pattern_of(rng)
        dense = a.to_csr().to_dense() != 0
        assert np.array_equal(
            a.lower().to_csr().to_dense() != 0, np.tril(dense)
        )
        assert np.array_equal(
            a.lower(strict=True).to_csr().to_dense() != 0, np.tril(dense, -1)
        )

    def test_with_diagonal(self, rng):
        a = pattern_of(rng)
        wd = a.with_diagonal()
        assert all(wd.contains(i, i) for i in range(a.nrows))
        assert a.issubset(wd)

    def test_transpose(self, rng):
        a = pattern_of(rng)
        dense = a.to_csr().to_dense() != 0
        assert np.array_equal(a.transpose().to_csr().to_dense() != 0, dense.T)

    def test_symmetrized(self, rng):
        a = pattern_of(rng)
        s = a.symmetrized()
        assert s == s.transpose()
        assert a.issubset(s)

    def test_contains(self):
        pat = SparsityPattern.from_rows((2, 4), [[1, 3], []])
        assert pat.contains(0, 1)
        assert not pat.contains(0, 2)
        assert not pat.contains(1, 0)

    def test_contains_arrays_agree_with_scalars(self, rng):
        pat = SparsityPattern.from_csr(random_sparse(rng, 7, 5, 0.4))
        i, j = np.divmod(np.arange(35), 5)
        mask = pat.contains(i, j)
        assert mask.dtype == bool
        assert mask.tolist() == [pat.contains(int(a), int(b)) for a, b in zip(i, j)]
        assert not SparsityPattern.empty((7, 5)).contains(i, j).any()
        assert pat.contains(i[:0], j[:0]).size == 0

    def test_to_csr_with_values(self):
        pat = SparsityPattern.from_rows((2, 2), [[0], [1]])
        mat = pat.to_csr(np.array([2.0, 3.0]))
        assert mat.to_dense()[0, 0] == 2.0
        assert mat.to_dense()[1, 1] == 3.0


class TestPaperPatternBuilders:
    def test_threshold_keeps_diagonal(self, rng):
        n = 12
        dense = rng.standard_normal((n, n)) * 0.01
        np.fill_diagonal(dense, 1.0)
        mat = CSRMatrix.from_dense(dense)
        pat = threshold_pattern(mat, 0.5)
        assert all(pat.contains(i, i) for i in range(n))
        # all off-diagonals are tiny relative to the unit diagonal
        assert pat.nnz == n

    def test_threshold_scale_independence(self):
        # scaling the matrix must not change the thresholded pattern
        dense = np.array([[4.0, 0.2, 0.0], [0.2, 1.0, 0.5], [0.0, 0.5, 9.0]])
        m1 = CSRMatrix.from_dense(dense)
        m2 = CSRMatrix.from_dense(dense * 1000.0)
        p1 = threshold_pattern(m1, 0.2)
        p2 = threshold_pattern(m2, 0.2)
        assert p1 == p2

    def test_threshold_zero_keeps_everything(self, rng):
        # threshold 0 keeps every stored entry; it never *adds* entries
        # (the diagonal is ensured later by fsai_pattern)
        mat = random_sparse(rng, 8, 8)
        pat = threshold_pattern(mat, 0.0)
        assert pat == SparsityPattern.from_csr(mat)

    def test_power_level1_is_base_plus_diagonal(self, rng):
        mat = random_sparse(rng, 8, 8)
        pat = SparsityPattern.from_csr(mat)
        assert power_pattern(pat, 1) == pat.with_diagonal()

    def test_power_matches_dense_boolean_power(self, rng):
        mat = random_sparse(rng, 9, 9)
        pat = SparsityPattern.from_csr(mat)
        dense = (mat.to_dense() != 0).astype(float) + np.eye(9)
        acc = dense.copy()
        for level in (2, 3):
            acc = acc @ dense
            got = power_pattern(pat, level).to_csr().to_dense() != 0
            assert np.array_equal(got, acc > 0)

    def test_power_monotone(self, rng):
        mat = random_sparse(rng, 8, 8)
        pat = SparsityPattern.from_csr(mat)
        p1, p2 = power_pattern(pat, 1), power_pattern(pat, 2)
        assert p1.issubset(p2)

    def test_power_rejects_bad_level(self, rng):
        pat = pattern_of(rng)
        with pytest.raises(ValueError):
            power_pattern(pat, 0)
