"""Property-based tests (hypothesis) for the sparse substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pytest
from extension_oracle import extension_entry_mask

from repro.errors import SparseFormatError
from repro.kernels import SpMVPlan
from repro.sparse import CSRMatrix, SparsityPattern, spgemm, symbolic_spgemm

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def sparse_matrices(draw, max_dim=12, square=False):
    nrows = draw(st.integers(1, max_dim))
    ncols = nrows if square else draw(st.integers(1, max_dim))
    dense = draw(
        hnp.arrays(
            np.float64,
            (nrows, ncols),
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )
    # sparsify ~60%
    mask = draw(
        hnp.arrays(np.bool_, (nrows, ncols), elements=st.booleans())
    )
    dense = np.where(mask, dense, 0.0)
    return CSRMatrix.from_dense(dense)


class TestCSRProperties:
    @SETTINGS
    @given(sparse_matrices())
    def test_dense_roundtrip(self, mat):
        assert CSRMatrix.from_dense(mat.to_dense()).allclose(mat, atol=0)

    @SETTINGS
    @given(sparse_matrices())
    def test_coo_roundtrip(self, mat):
        r, c, v = mat.to_coo()
        back = CSRMatrix.from_coo(mat.shape, r, c, v)
        # explicit zeros are dropped by neither path; structures must agree
        assert back.allclose(mat, atol=0)

    @SETTINGS
    @given(sparse_matrices())
    def test_transpose_involution(self, mat):
        assert mat.transpose().transpose() == mat

    @SETTINGS
    @given(sparse_matrices(), st.integers(0, 2**32 - 1))
    def test_spmv_matches_dense(self, mat, seed):
        x = np.random.default_rng(seed).standard_normal(mat.ncols)
        assert np.allclose(mat.spmv(x), mat.to_dense() @ x)

    @SETTINGS
    @given(sparse_matrices(), st.integers(0, 2**32 - 1))
    def test_transpose_spmv_consistency(self, mat, seed):
        x = np.random.default_rng(seed).standard_normal(mat.nrows)
        assert np.allclose(mat.spmv_transpose(x), mat.transpose().spmv(x))

    @SETTINGS
    @given(sparse_matrices(square=True))
    def test_triangular_split_reassembles(self, mat):
        lower = mat.extract_lower().to_dense()
        upper = mat.extract_upper(strict=True).to_dense()
        assert np.allclose(lower + upper, mat.to_dense())

    @SETTINGS
    @given(sparse_matrices(square=True), st.integers(0, 2**32 - 1))
    def test_spmv_adjoint_identity(self, mat, seed):
        """⟨Ax, y⟩ == ⟨x, Aᵀy⟩ — exercises both SpMV kernels at once."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(mat.ncols)
        y = rng.standard_normal(mat.nrows)
        assert np.isclose(mat.spmv(x) @ y, x @ mat.spmv_transpose(y))


class TestSpGEMMProperties:
    @SETTINGS
    @given(sparse_matrices(max_dim=8, square=True), sparse_matrices(max_dim=8, square=True))
    def test_product_matches_dense(self, a, b):
        if a.ncols != b.nrows:
            b = CSRMatrix.from_dense(np.zeros((a.ncols, a.ncols)))
        assert np.allclose(spgemm(a, b).to_dense(), a.to_dense() @ b.to_dense())

    @SETTINGS
    @given(sparse_matrices(max_dim=8, square=True))
    def test_symbolic_covers_numeric(self, a):
        numeric = spgemm(a, a)
        symbolic = symbolic_spgemm(
            SparsityPattern.from_csr(a), SparsityPattern.from_csr(a)
        )
        assert SparsityPattern.from_csr(numeric).issubset(symbolic)


class TestPatternProperties:
    @SETTINGS
    @given(sparse_matrices(square=True), sparse_matrices(square=True))
    def test_union_commutative_and_absorbing(self, a, b):
        if a.shape != b.shape:
            return
        pa, pb = SparsityPattern.from_csr(a), SparsityPattern.from_csr(b)
        assert pa.union(pb) == pb.union(pa)
        assert pa.issubset(pa.union(pb))
        assert pa.intersection(pb).issubset(pa)

    @SETTINGS
    @given(sparse_matrices(square=True))
    def test_demorgan_like_identity(self, a):
        pa = SparsityPattern.from_csr(a)
        lower, diagless = pa.lower(), pa.lower(strict=True)
        assert diagless.issubset(lower)

    @SETTINGS
    @given(sparse_matrices(square=True))
    def test_transpose_involution(self, a):
        pa = SparsityPattern.from_csr(a)
        assert pa.transpose().transpose() == pa


@st.composite
def pattern_pairs(draw, max_dim=9):
    """Two patterns of one (possibly rectangular) shape as per-row column
    sets — the oracle representation; empty rows and empty patterns occur."""
    nrows, ncols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    row_sets = st.lists(
        st.sets(st.integers(0, ncols - 1)), min_size=nrows, max_size=nrows
    )
    return (nrows, ncols), draw(row_sets), draw(row_sets)


def _rows_of(pat: SparsityPattern) -> list[set[int]]:
    return [set(pat.row(i).tolist()) for i in range(pat.nrows)]


class TestSetAlgebraAgainstPythonSets:
    """The one-pass sorted-key set algebra against per-row Python ``set``s."""

    SETTINGS = settings(max_examples=120, deadline=None)

    @SETTINGS
    @given(pattern_pairs())
    def test_binary_operations(self, case):
        shape, rows_a, rows_b = case
        a = SparsityPattern.from_rows(shape, rows_a)
        b = SparsityPattern.from_rows(shape, rows_b)
        for result, op in (
            (a.union(b), set.union),
            (a.intersection(b), set.intersection),
            (a.difference(b), set.difference),
        ):
            assert _rows_of(result) == [op(x, y) for x, y in zip(rows_a, rows_b)]
            # canonical CSR: what the validating constructor accepts
            SparsityPattern(result.shape, result.indptr, result.indices)
            assert result.indices.dtype == result.indptr.dtype == np.int64
        assert a.issubset(b) == all(x <= y for x, y in zip(rows_a, rows_b))
        assert a.intersection(b).issubset(a) and a.issubset(a.union(b))

    @SETTINGS
    @given(pattern_pairs())
    def test_with_diagonal(self, case):
        shape, rows_a, _ = case
        with_diag = SparsityPattern.from_rows(shape, rows_a).with_diagonal()
        expected = [
            cols | ({i} if i < shape[1] else set()) for i, cols in enumerate(rows_a)
        ]
        assert _rows_of(with_diag) == expected

    @SETTINGS
    @given(pattern_pairs(), st.data())
    def test_validation_names_the_unsorted_row(self, case, data):
        shape, rows_a, _ = case
        pat = SparsityPattern.from_rows(shape, rows_a)
        long_rows = [i for i, cols in enumerate(rows_a) if len(cols) > 1]
        if not long_rows:
            return
        row = data.draw(st.sampled_from(long_rows))
        indices = pat.indices.copy()
        lo = pat.indptr[row]
        indices[lo], indices[lo + 1] = indices[lo + 1], indices[lo]
        with pytest.raises(SparseFormatError, match=f"row {row} not strictly"):
            SparsityPattern(shape, pat.indptr, indices)
        indices[lo + 1] = indices[lo]  # a duplicate is not strictly increasing either
        with pytest.raises(SparseFormatError, match=f"row {row} not strictly"):
            SparsityPattern(shape, pat.indptr, indices)

    @SETTINGS
    @given(sparse_matrices())
    def test_diagonal(self, mat):
        dense = mat.to_dense()
        expected = [dense[i, i] for i in range(min(mat.shape))]
        assert mat.diagonal().tolist() == expected

    @SETTINGS
    @given(pattern_pairs())
    def test_extension_entry_mask(self, case):
        shape, rows_g, rows_base = case
        g = SparsityPattern.from_rows(shape, rows_g).to_csr()
        base = SparsityPattern.from_rows(shape, rows_base)
        expected = [
            j not in rows_base[i] for i in range(shape[0]) for j in sorted(rows_g[i])
        ]
        mask = extension_entry_mask(g, base)
        assert mask.dtype == np.bool_ and mask.tolist() == expected


@st.composite
def plan_blocks(draw, max_dim=12):
    """Rectangular blocks in the shapes plans meet: general, one-row,
    halo-shaped ``n_local × (n_local + n_halo)`` and ``nnz == 0``, with
    whole rows and columns knocked out."""
    kind = draw(st.sampled_from(["rect", "one_row", "halo", "empty"]))
    nrows = 1 if kind == "one_row" else draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    if kind == "halo":
        ncols += nrows
    dense = draw(
        hnp.arrays(np.float64, (nrows, ncols), elements=st.floats(-10, 10, allow_nan=False))
    )
    keep = draw(hnp.arrays(np.bool_, (nrows, ncols), elements=st.booleans()))
    keep &= draw(hnp.arrays(np.bool_, (nrows, 1), elements=st.booleans()))
    keep &= draw(hnp.arrays(np.bool_, (1, ncols), elements=st.booleans()))
    if kind == "empty":
        keep[:] = False
    return CSRMatrix.from_dense(np.where(keep, dense, 0.0))


class TestSpMVPlanProperties:
    @SETTINGS
    @given(plan_blocks(), st.integers(0, 2**32 - 1))
    def test_plan_matches_reference_kernels(self, mat, seed):
        """The compiled kernel equals ``CSRMatrix.spmv`` / ``spmv_transpose``
        to ``1e-14 · Σ|a_ij x_j|`` per output entry, ``out=`` reused."""
        rng = np.random.default_rng(seed)
        plan = SpMVPlan(mat)
        magnitude = np.abs(mat.to_dense())
        out, out_t = np.empty(mat.nrows), np.empty(mat.ncols)
        for _ in range(2):  # second pass: stale contents of out must not leak
            x, y = rng.standard_normal(mat.ncols), rng.standard_normal(mat.nrows)
            assert plan.spmv(x, out=out) is out
            assert np.all(np.abs(out - mat.spmv(x)) <= 1e-14 * (magnitude @ np.abs(x)))
            assert plan.spmv_t(y, out=out_t) is out_t
            assert np.all(
                np.abs(out_t - mat.spmv_transpose(y)) <= 1e-14 * (magnitude.T @ np.abs(y))
            )
