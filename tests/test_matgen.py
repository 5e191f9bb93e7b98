"""Unit tests for the workload generators and the evaluation catalog."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matgen import (
    PAPER_RTOL,
    anisotropic2d,
    banded_spd,
    circuit_laplacian,
    default_rank_count,
    electromagnetics_like,
    elasticity2d,
    elasticity3d,
    get_case,
    paper_rhs,
    poisson2d,
    poisson3d,
    shell_like,
    stretched_grid_2d,
    table1_cases,
    table2_cases,
    wide_stencil_3d,
)
from repro.matgen.stencils import anisotropic3d
from repro.sparse import CSRMatrix
from repro.sparse.ops import is_symmetric, max_norm


def assert_spd(mat: CSRMatrix):
    """Symmetric, positive diagonal, positive curvature along two probes."""
    assert is_symmetric(mat)
    assert np.all(mat.diagonal() > 0)
    for x in np.random.default_rng(0).standard_normal((2, mat.nrows)):
        assert float(x @ mat.spmv(x)) > 0


class TestStencils:
    def test_poisson2d_structure(self):
        mat = poisson2d(4)
        assert mat.shape == (16, 16)
        assert mat.nnz == 16 + 2 * 2 * 4 * 3  # diag + 4 edge sets
        assert_spd(mat)

    def test_poisson2d_matches_kron_formula(self):
        n = 5
        mat = poisson2d(n).to_dense()
        t = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        expected = np.kron(t, np.eye(n)) + np.kron(np.eye(n), t)
        assert np.allclose(mat, expected)

    def test_poisson3d(self):
        mat = poisson3d(4)
        assert mat.shape == (64, 64)
        assert_spd(mat)
        assert mat.diagonal()[0] == 6.0

    def test_anisotropic_weights(self):
        mat = anisotropic2d(3, 3, 1.0, 0.01)
        dense = mat.to_dense()
        assert dense[0, 3] == -1.0  # x neighbour (stride ny=3)
        assert dense[0, 1] == -0.01  # y neighbour
        assert_spd(mat)

    def test_anisotropic3d(self):
        assert_spd(anisotropic3d(3, 4, 5, 1.0, 0.5, 0.1))

    def test_wide_stencil_density(self):
        r1 = wide_stencil_3d(6, 1)
        r2 = wide_stencil_3d(6, 2)
        assert r2.nnz > 2 * r1.nnz
        assert_spd(r2)

    def test_stretched_grid(self):
        mat = stretched_grid_2d(8, 8, stretch=50.0)
        assert_spd(mat)
        # strong spread of coupling scales is the point of this generator
        rows = np.repeat(np.arange(mat.nrows), mat.row_nnz())
        off = np.abs(mat.data[rows != mat.indices])
        assert off.max() / off.min() > 10.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            poisson2d(0)
        with pytest.raises(ValueError):
            anisotropic2d(3, 3, -1.0, 1.0)
        with pytest.raises(ValueError):
            wide_stencil_3d(4, 0)
        with pytest.raises(ValueError):
            stretched_grid_2d(1, 5)


class TestFEM:
    def test_elasticity2d_is_spd_with_clamped_edge(self):
        mat = elasticity2d(5, 4)
        assert mat.shape == (2 * 6 * 5, 2 * 6 * 5)
        assert_spd(mat)

    def test_elasticity3d_is_spd(self):
        mat = elasticity3d(3, 3, 2)
        assert mat.shape == (3 * 4 * 4 * 3, 3 * 4 * 4 * 3)
        assert_spd(mat)

    def test_elasticity3d_row_density(self):
        mat = elasticity3d(4, 4, 4)
        # interior nodes couple to 27 nodes x 3 dof = 81 entries
        assert mat.row_nnz().max() == 81

    def test_shell_like(self):
        mat = shell_like(6, 6)
        assert_spd(mat)
        # mixed scales from the thin-bending contribution
        ratios = np.abs(mat.data)
        assert ratios.max() / ratios[ratios > 0].min() > 10

    def test_element_stiffness_singularity(self):
        """An unpinned element stiffness has rigid-body null modes — the
        assembly must pin DOFs to restore definiteness."""
        from repro.matgen.fem import _q4_stiffness

        ke = _q4_stiffness(1.0, 0.3)
        w = np.linalg.eigvalsh(ke)
        assert np.sum(np.abs(w) < 1e-10) == 3  # 2 translations + 1 rotation
        assert np.all(w > -1e-10)

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            elasticity2d(0, 3)
        with pytest.raises(ValueError):
            elasticity3d(1, 1, 0)


class TestGraphGenerators:
    def test_circuit_laplacian_spd(self):
        assert_spd(circuit_laplacian(300, seed=1))

    def test_circuit_row_sums_almost_zero_without_ground(self):
        mat = circuit_laplacian(200, ground_fraction=0.0, seed=2)
        sums = mat.to_dense().sum(axis=1)
        assert np.all(sums >= 0)
        assert sums.max() <= 1e-5 + 1e-9  # only the tiny regularisation

    def test_electromagnetics_like_spd(self):
        assert_spd(electromagnetics_like(5, seed=3))

    def test_banded_spd(self):
        mat = banded_spd(150, 8, seed=4)
        assert_spd(mat)
        rows = np.repeat(np.arange(150), mat.row_nnz())
        assert np.abs(rows - mat.indices).max() <= 8

    def test_determinism(self):
        assert circuit_laplacian(100, seed=9).allclose(circuit_laplacian(100, seed=9))
        assert banded_spd(80, 5, seed=9).allclose(banded_spd(80, 5, seed=9))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            circuit_laplacian(1)
        with pytest.raises(ValueError):
            banded_spd(10, 0)


class TestRHS:
    def test_max_norm_normalisation(self, poisson16):
        b = paper_rhs(poisson16, seed=5)
        assert np.abs(b).max() == pytest.approx(max_norm(poisson16))

    def test_deterministic_per_seed(self, poisson16):
        assert np.allclose(paper_rhs(poisson16, 1), paper_rhs(poisson16, 1))
        assert not np.allclose(paper_rhs(poisson16, 1), paper_rhs(poisson16, 2))

    def test_paper_rtol(self):
        assert PAPER_RTOL == 1e-8


class TestCatalog:
    def test_table1_has_39_cases(self):
        cases = table1_cases()
        assert len(cases) == 39
        assert [c.case_id for c in cases] == list(range(1, 40))

    def test_table2_has_8_cases(self):
        cases = table2_cases()
        assert len(cases) == 8
        assert all(c.large for c in cases)

    def test_all_cases_build_spd(self):
        for case in table1_cases() + table2_cases():
            mat = case.build()
            assert is_symmetric(mat), case.name
            assert np.all(mat.diagonal() > 0), case.name

    def test_scale_grows_problem(self):
        case = get_case("ecology2")
        small = case.build(1.0)
        big = case.build(4.0)
        assert big.nrows > 2 * small.nrows

    def test_get_case(self):
        assert get_case("thermal2").problem_type == "thermal"
        assert get_case("Queen_4147", large=True).large
        with pytest.raises(KeyError):
            get_case("nonexistent")

    def test_paper_records_sane(self):
        for case in table1_cases():
            rec = case.paper
            assert rec.fsai_iters >= rec.comm_iters > 0
            assert rec.comm_nnz_pct >= rec.fsaie_nnz_pct > 0
            assert rec.cores > 0 and rec.nodes > 0

    def test_default_rank_count_bounds(self):
        assert default_rank_count(100) == 2
        assert default_rank_count(10**9) == 12
        assert 2 <= default_rank_count(30000) <= 12

    def test_build_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            get_case("gyro").build(0.0)


class TestCatalogScaling:
    @pytest.mark.parametrize("case", table1_cases(), ids=lambda c: c.name)
    def test_every_case_scales_up(self, case):
        small = case.build(1.0)
        big = case.build(2.0)
        assert big.nrows >= small.nrows
        assert big.nnz > small.nnz
        assert is_symmetric(big)

    @pytest.mark.parametrize("case", table2_cases(), ids=lambda c: c.name)
    def test_large_set_scales_up(self, case):
        small = case.build(1.0)
        big = case.build(2.0)
        assert big.nnz > small.nnz
