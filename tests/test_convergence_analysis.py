"""Unit tests for CG convergence analysis (Ritz values, rates)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import SpectralEstimate, convergence_rate
from repro.analysis.convergence import lanczos_tridiagonal
from repro.core import build_fsai, build_fsaie_comm, cg, pcg
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.matgen import paper_rhs, poisson2d


@pytest.fixture(scope="module")
def solved():
    mat = poisson2d(12)
    part = RowPartition.contiguous(mat.nrows, 2)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, 0), part)
    return mat, part, da, b


class TestLanczos:
    def test_tridiagonal_shape(self):
        t = lanczos_tridiagonal([0.5, 0.4, 0.3], [0.2, 0.1])
        assert t.shape == (3, 3)
        assert np.allclose(t, t.T)

    def test_one_step(self):
        t = lanczos_tridiagonal([0.25], [])
        assert t.shape == (1, 1)
        assert t[0, 0] == 4.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lanczos_tridiagonal([], [])
        with pytest.raises(ValueError):
            lanczos_tridiagonal([0.5, 0.5], [0.1, 0.1])  # too many betas
        with pytest.raises(ValueError):
            lanczos_tridiagonal([0.0], [])


class TestSpectralEstimates:
    def test_recovers_true_spectrum_of_poisson(self, solved):
        mat, _, da, b = solved
        result = cg(da, b, rtol=1e-12)
        est = result.spectral_estimate()
        w = np.linalg.eigvalsh(mat.to_dense())
        assert est.lambda_max == pytest.approx(w[-1], rel=1e-3)
        assert est.lambda_min == pytest.approx(w[0], rel=0.05)
        assert est.condition_number == pytest.approx(w[-1] / w[0], rel=0.06)

    def test_fsai_lowers_estimated_condition(self, solved):
        mat, part, da, b = solved
        plain = cg(da, b, rtol=1e-12).spectral_estimate()
        pre = build_fsai(mat, part)
        precond = pcg(da, b, precond=pre.apply, rtol=1e-12).spectral_estimate()
        assert precond.condition_number < plain.condition_number

    def test_extension_lowers_condition_further(self, solved):
        mat, part, da, b = solved
        fsai = build_fsai(mat, part)
        comm = build_fsaie_comm(mat, part)
        c_fsai = pcg(da, b, precond=fsai.apply, rtol=1e-12).spectral_estimate()
        c_comm = pcg(da, b, precond=comm.apply, rtol=1e-12).spectral_estimate()
        assert c_comm.condition_number <= c_fsai.condition_number * 1.05

    def test_ritz_values_sorted_and_positive(self, solved):
        _, _, da, b = solved
        est = cg(da, b, rtol=1e-10).spectral_estimate()
        assert np.all(np.diff(est.ritz_values) >= 0)
        assert est.ritz_values[0] > 0

    def test_singular_estimate_condition(self):
        est = SpectralEstimate(0.0, 1.0, np.array([0.0, 1.0]))
        assert est.condition_number == float("inf")


class TestConvergenceRate:
    def test_geometric_series(self):
        hist = [1.0 * 0.5**k for k in range(10)]
        assert convergence_rate(hist) == pytest.approx(0.5)

    def test_better_preconditioner_better_rate(self, solved):
        mat, part, da, b = solved
        plain = cg(da, b)
        pre = build_fsai(mat, part)
        precond = pcg(da, b, precond=pre.apply)
        assert convergence_rate(precond.residual_norms) < convergence_rate(
            plain.residual_norms
        )

    def test_degenerate_inputs(self):
        assert convergence_rate([]) == 1.0
        assert convergence_rate([5.0]) == 1.0
        assert convergence_rate([0.0, 0.0]) == 1.0
