"""Unit tests for the adaptive-pattern FSPAI comparator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FSPAIOptions, build_fsai, fspai_factor, pcg
from repro.core.adaptive import fspai_pattern
from repro.core.precond import _distribute
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.errors import ShapeError
from repro.matgen import paper_rhs, poisson2d
from repro.sparse import CSRMatrix

from conftest import random_sparse


class TestPatternGrowth:
    def test_zero_steps_gives_diagonal(self, small_spd):
        pat = fspai_pattern(small_spd, FSPAIOptions(max_steps=0))
        assert pat.nnz == small_spd.nrows
        for i in range(small_spd.nrows):
            assert pat.row(i).tolist() == [i]

    def test_pattern_is_lower_triangular_with_diagonal(self, small_spd):
        pat = fspai_pattern(small_spd, FSPAIOptions(max_steps=3))
        for i in range(pat.nrows):
            row = pat.row(i)
            assert row[-1] == i
            assert np.all(row <= i)

    def test_more_steps_grow_monotonically(self, poisson16):
        sizes = [
            fspai_pattern(poisson16, FSPAIOptions(max_steps=k)).nnz
            for k in (0, 1, 2, 4)
        ]
        assert sizes == sorted(sizes)

    def test_tol_one_keeps_only_peak_candidates(self, poisson16):
        loose = fspai_pattern(poisson16, FSPAIOptions(max_steps=2, tol=0.0))
        strict = fspai_pattern(poisson16, FSPAIOptions(max_steps=2, tol=1.0))
        assert strict.nnz <= loose.nnz

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ShapeError):
            fspai_pattern(random_sparse(rng, 4, 6))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FSPAIOptions(per_step=0)
        with pytest.raises(ValueError):
            FSPAIOptions(tol=1.5)


class TestFactorQuality:
    def test_unit_diagonal_of_gagt(self, small_spd):
        g = fspai_factor(small_spd)
        m = g.to_dense() @ small_spd.to_dense() @ g.to_dense().T
        assert np.allclose(np.diag(m), 1.0, atol=1e-8)

    def test_beats_static_fsai_iterations(self):
        """The related-work claim: dynamic patterns are more powerful."""
        mat = poisson2d(18)
        part = RowPartition.from_matrix(mat, 3, seed=0)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, 2), part)
        fsai = build_fsai(mat, part)
        g = fspai_factor(mat, FSPAIOptions(max_steps=4, per_step=2))
        fspai = _distribute("FSPAI", g, part, base_nnz=fsai.nnz, filters=np.zeros(3))
        r_static = pcg(da, b, precond=fsai.apply)
        r_dynamic = pcg(da, b, precond=fspai.apply)
        assert r_dynamic.converged
        assert r_dynamic.iterations < r_static.iterations

    def test_but_grows_communication(self):
        """...and the paper's counterpoint: it ignores the halo structure."""
        mat = poisson2d(18)
        part = RowPartition.from_matrix(mat, 4, seed=1)
        fsai = build_fsai(mat, part)
        g = fspai_factor(mat, FSPAIOptions(max_steps=4, per_step=2))
        fspai = _distribute("FSPAI", g, part, base_nnz=fsai.nnz, filters=np.zeros(4))
        assert (
            fspai.g.schedule.total_halo_values()
            > fsai.g.schedule.total_halo_values()
        )

    def test_diagonal_matrix(self):
        mat = CSRMatrix.from_dense(np.diag([4.0, 9.0]))
        g = fspai_factor(mat)
        assert np.allclose(g.to_dense(), np.diag([0.5, 1.0 / 3.0]))
