"""Unit tests for BLAS-1 helpers and sparse matrix checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import (
    CSRMatrix,
    axpy,
    dot,
    is_symmetric,
    max_norm,
    norm2,
    xpay,
)

from conftest import random_sparse


class TestVectorKernels:
    def test_axpy_in_place(self, rng):
        x, y = rng.standard_normal(10), rng.standard_normal(10)
        expected = y + 0.5 * x
        result = axpy(0.5, x, y)
        assert result is y
        assert np.allclose(y, expected)

    def test_xpay_in_place(self, rng):
        x, y = rng.standard_normal(10), rng.standard_normal(10)
        expected = x + 2.0 * y
        result = xpay(x, 2.0, y)
        assert result is y
        assert np.allclose(y, expected)

    def test_dot_and_norm(self, rng):
        x, y = rng.standard_normal(10), rng.standard_normal(10)
        assert dot(x, y) == pytest.approx(float(x @ y))
        assert norm2(x) == pytest.approx(float(np.linalg.norm(x)))

    def test_shape_checks(self, rng):
        with pytest.raises(ShapeError):
            axpy(1.0, np.ones(3), np.ones(4))
        with pytest.raises(ShapeError):
            xpay(np.ones(3), 1.0, np.ones(4))
        with pytest.raises(ShapeError):
            dot(np.ones(3), np.ones(4))


class TestMatrixChecks:
    def test_max_norm(self, rng):
        mat = random_sparse(rng, 6, 6)
        assert max_norm(mat) == pytest.approx(np.abs(mat.to_dense()).max())

    def test_max_norm_empty(self):
        assert max_norm(CSRMatrix.zeros((3, 3))) == 0.0

    def test_is_symmetric(self, rng, small_spd):
        assert is_symmetric(small_spd)
        assert not is_symmetric(random_sparse(rng, 6, 6))
        assert not is_symmetric(random_sparse(rng, 4, 6))
