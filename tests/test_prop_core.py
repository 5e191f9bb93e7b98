"""Property-based tests for the FSAI core: extension, filtering, solver.

These encode the paper's invariants over randomly generated SPD matrices and
partitions, not just the fixed fixtures of the unit tests.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExtensionMode,
    ExtensionWorkspace,
    FilterSpec,
    PrecondOptions,
    SetupOptions,
    build_fsai,
    build_fsaie,
    build_fsaie_comm,
    check_comm_invariance,
    compute_g_values,
    extend_dist_pattern,
    fsai_pattern,
    pcg,
)
from repro.dist import DistMatrix, DistVector, HaloSchedule, RowPartition
from repro.matgen import paper_rhs, poisson2d
from repro.sparse import CSRMatrix, SparsityPattern

from extension_oracle import dynamic_filter_for_rank, static_filter_counts

SETTINGS = settings(max_examples=15, deadline=None)


@st.composite
def random_spd(draw, max_dim=24):
    n = draw(st.integers(6, max_dim))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.floats(0.05, 0.4))
    base = rng.standard_normal((n, n))
    base[rng.random((n, n)) > density] = 0.0
    dense = base @ base.T + n * np.eye(n)
    return CSRMatrix.from_dense(dense, tol=1e-12)


@st.composite
def partitioned_grid(draw):
    n = draw(st.integers(8, 16))
    nparts = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 100))
    mat = poisson2d(n)
    part = RowPartition.from_matrix(mat, nparts, seed=seed)
    return mat, part


class TestFSAIProperties:
    @SETTINGS
    @given(random_spd())
    def test_unit_diagonal_of_gagt(self, mat):
        g = compute_g_values(mat, fsai_pattern(mat)).to_dense()
        m = g @ mat.to_dense() @ g.T
        assert np.allclose(np.diag(m), 1.0, atol=1e-6)

    @SETTINGS
    @given(random_spd())
    def test_preconditioned_system_positive_definite(self, mat):
        g = compute_g_values(mat, fsai_pattern(mat)).to_dense()
        m = g @ mat.to_dense() @ g.T
        assert np.linalg.eigvalsh(m).min() > 0

    @SETTINGS
    @given(random_spd(max_dim=16), st.integers(0, 2**31 - 1))
    def test_pcg_with_fsai_converges(self, mat, seed):
        part = RowPartition.contiguous(mat.nrows, 2)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, seed), part)
        pre = build_fsai(mat, part)
        result = pcg(da, b, precond=pre.apply, rtol=1e-8, max_iterations=2000)
        assert result.converged


@st.composite
def workspace_and_drop_mask(draw):
    """A workspace on a random SPD matrix (so a random lower base pattern),
    a random partition / line size / mode (so a random extension), and a
    random set of extension entries to drop: none, all, some of one row, or
    a Bernoulli draw over all of them."""
    mat = draw(random_spd())
    part = RowPartition.contiguous(mat.nrows, draw(st.integers(1, 3)))
    ws = ExtensionWorkspace(
        "X", mat, part, draw(st.sampled_from(list(ExtensionMode))),
        line_bytes=draw(st.sampled_from([64, 128, 256])),
        setup=SetupOptions(dtype=draw(st.sampled_from(["float64", "float32"]))),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(["none", "all", "one_row", "random"]))
    drop = np.zeros(ws.g_pre.nnz, dtype=bool)
    if kind == "all":
        drop = ws.ext_mask.copy()
    elif kind == "one_row":
        row = rng.integers(mat.nrows)
        lo, hi = ws.g_pre.indptr[row], ws.g_pre.indptr[row + 1]
        drop[lo:hi] = ws.ext_mask[lo:hi] & (rng.random(hi - lo) < rng.random())
    elif kind == "random":
        drop = ws.ext_mask & (rng.random(drop.size) < rng.random())
    return ws, drop


class TestIncrementalFactorProperties:
    @settings(max_examples=40, deadline=None)
    @given(workspace_and_drop_mask(), st.data())
    def test_refactor_equals_the_factor_from_scratch(self, case, data):
        """Rows copied from the precalculation or the base factor are what a
        from-scratch solve of the filtered pattern returns, to 1e-12 in
        float64 and to rounding in float32 — also on a workspace whose base
        rows were already solved by an earlier, different drop.  Not bitwise:
        a kept row was solved in a supernode of the extended pattern, and
        the filtered pattern nests differently."""
        ws, drop = case
        if data.draw(st.booleans()):
            ws._refactor(ws.g_pre.drop_entries(ws.ext_mask))
        g = ws._refactor(ws.g_pre.drop_entries(drop))
        scratch = compute_g_values(
            ws.mat, SparsityPattern.from_csr(ws.g_pre.drop_entries(drop)), setup=ws.setup
        )
        assert np.array_equal(g.indptr, scratch.indptr)
        assert np.array_equal(g.indices, scratch.indices)
        if ws.setup.dtype == "float64":
            assert np.max(np.abs(g.data - scratch.data), initial=0.0) <= 1e-12
        else:
            assert np.allclose(g.data, scratch.data, rtol=1e-6, atol=1e-6)


class TestExtensionProperties:
    @SETTINGS
    @given(partitioned_grid(), st.sampled_from([64, 128, 256]))
    def test_comm_invariance_holds_for_any_partition(self, grid, line_bytes):
        mat, part = grid
        base = fsai_pattern(mat)
        dist = DistMatrix.from_global(base.to_csr(), part)
        for mode in (ExtensionMode.LOCAL, ExtensionMode.COMM):
            ext = extend_dist_pattern(dist, line_bytes, mode)
            rows, cols = ext.rows, ext.cols
            if rows.size == 0:
                continue
            from repro.core.precond import _union_with_entries

            ext_pat, _ = _union_with_entries(base, rows, cols)
            assert base.issubset(ext_pat)
            assert HaloSchedule.from_pattern(ext_pat, part) == HaloSchedule.from_pattern(base, part)
            assert HaloSchedule.from_pattern(
                ext_pat.transpose(), part
            ) == HaloSchedule.from_pattern(base.transpose(), part)

    @SETTINGS
    @given(partitioned_grid())
    def test_end_to_end_invariance_and_convergence(self, grid):
        mat, part = grid
        opts = PrecondOptions(filter=FilterSpec(0.01, dynamic=True))
        base = build_fsai(mat, part, opts)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, 0), part)
        base_res = pcg(da, b, precond=base.apply, max_iterations=3000)
        for build in (build_fsaie, build_fsaie_comm):
            ext = build(mat, part, opts)
            assert check_comm_invariance(base, ext)
            res = pcg(da, b, precond=ext.apply, max_iterations=3000)
            assert res.converged
            # pattern extension never blows up the iteration count
            assert res.iterations <= base_res.iterations * 1.5 + 5


class TestFilteringProperties:
    @SETTINGS
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(10, 5000),
        st.floats(0.001, 0.2),
    )
    def test_dynamic_filter_never_below_initial(self, seed, n_ext, init):
        rng = np.random.default_rng(seed)
        ratios = rng.uniform(0, 1, n_ext)
        f = dynamic_filter_for_rank(100, ratios, init, average_count=120.0)
        assert f >= init

    @SETTINGS
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    def test_dynamic_filter_reduces_max_load(self, seed, nparts):
        from repro.core import compute_dynamic_filters

        rng = np.random.default_rng(seed)
        ratios = [
            rng.uniform(0, 1, int(rng.integers(10, 4000))) for _ in range(nparts)
        ]
        base = rng.integers(50, 200, nparts)
        spec = FilterSpec(0.01, dynamic=True)
        filters = compute_dynamic_filters(base, ratios, spec)
        before = static_filter_counts(base, ratios, 0.01)
        after = np.array(
            [
                int(b) + int(np.count_nonzero(r > f))
                for b, r, f in zip(base, ratios, filters)
            ]
        )
        assert after.max() <= before.max()
        assert np.all(after <= before)
