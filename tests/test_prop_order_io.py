"""Property-based tests for reordering and MatrixMarket I/O."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.order import bandwidth, permute_symmetric, rcm_ordering
from repro.order.permute import inverse_permutation
from repro.sparse import CSRMatrix, read_matrix_market, write_matrix_market

SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def spd_matrices(draw, max_dim=15):
    n = draw(st.integers(2, max_dim))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.floats(0.1, 0.5))
    base = rng.standard_normal((n, n))
    base[rng.random((n, n)) > density] = 0.0
    return CSRMatrix.from_dense(base @ base.T + n * np.eye(n), tol=1e-12)


class TestPermutationProperties:
    @SETTINGS
    @given(spd_matrices(), st.integers(0, 2**31 - 1))
    def test_permutation_similarity(self, mat, seed):
        """P A Pᵀ has the same eigenvalues as A."""
        perm = np.random.default_rng(seed).permutation(mat.nrows)
        permuted = permute_symmetric(mat, perm)
        w_a = np.linalg.eigvalsh(mat.to_dense())
        w_p = np.linalg.eigvalsh(permuted.to_dense())
        assert np.allclose(np.sort(w_a), np.sort(w_p), rtol=1e-8, atol=1e-10)

    @SETTINGS
    @given(spd_matrices(), st.integers(0, 2**31 - 1))
    def test_double_permutation_roundtrip(self, mat, seed):
        perm = np.random.default_rng(seed).permutation(mat.nrows)
        back = permute_symmetric(permute_symmetric(mat, perm), inverse_permutation(perm))
        assert back.allclose(mat, atol=0)


class TestRCMProperties:
    @SETTINGS
    @given(spd_matrices())
    def test_rcm_is_permutation(self, mat):
        perm = rcm_ordering(mat)
        assert np.array_equal(np.sort(perm), np.arange(mat.nrows))

    @SETTINGS
    @given(spd_matrices(), st.integers(0, 2**31 - 1))
    def test_rcm_never_worse_than_random(self, mat, seed):
        rng = np.random.default_rng(seed)
        shuffled = permute_symmetric(mat, rng.permutation(mat.nrows))
        rcm = permute_symmetric(shuffled, rcm_ordering(shuffled))
        # RCM may not beat a lucky shuffle on tiny graphs but must stay sane
        assert bandwidth(rcm) <= max(bandwidth(shuffled), 1) * 2


class TestIOProperties:
    @SETTINGS
    @given(spd_matrices())
    def test_symmetric_file_roundtrip(self, mat):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.mtx"
            write_matrix_market(path, mat, symmetric=True)
            assert read_matrix_market(path).allclose(mat)

    @SETTINGS
    @given(spd_matrices(), st.integers(0, 2**31 - 1))
    def test_general_file_roundtrip_random_rect(self, mat, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        rect = rng.standard_normal((mat.nrows, mat.nrows + 3))
        rect[rng.random(rect.shape) > 0.3] = 0.0
        rect_mat = CSRMatrix.from_dense(rect)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.mtx"
            write_matrix_market(path, rect_mat)
            assert read_matrix_market(path).allclose(rect_mat)
