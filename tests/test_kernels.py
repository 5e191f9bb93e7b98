"""Tests for the kernel-plan / workspace runtime (repro.kernels)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.cg import pcg, supports_workspace
from repro.core.precond import build_fsai
from repro.core.solvers import pipelined_pcg
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.errors import ShapeError
from repro.instrument import NULL_TRACER, tracing
from repro.kernels import SolverWorkspace, SpMVPlan
from repro.matgen import paper_rhs, poisson2d
from repro.sparse import CSRMatrix

from conftest import random_sparse


class TestSpMVPlan:
    def test_transpose_matches_csr(self, rng):
        mat = random_sparse(rng, 37, 29, density=0.15)
        plan = SpMVPlan(mat)
        x = rng.standard_normal(37)
        # left-to-right sums vs the add.at reference: equal to rounding (the
        # property in test_prop_sparse.py bounds both products per entry)
        assert np.allclose(plan.spmv_t(x), mat.spmv_transpose(x), atol=1e-13)

    def test_empty_rows_and_cols(self, rng):
        dense = np.zeros((6, 5))
        dense[0, 1] = 2.0
        dense[4, 3] = -1.5
        mat = CSRMatrix.from_dense(dense)
        plan = SpMVPlan(mat)
        x = rng.standard_normal(5)
        y = rng.standard_normal(6)
        assert np.allclose(plan.spmv(x), dense @ x)
        assert np.allclose(plan.spmv_t(y), dense.T @ y)

    def test_empty_matrix(self):
        mat = CSRMatrix.from_dense(np.zeros((4, 3)))
        plan = SpMVPlan(mat)
        assert np.array_equal(plan.spmv(np.ones(3)), np.zeros(4))
        assert np.array_equal(plan.spmv_t(np.ones(4)), np.zeros(3))

    def test_out_reuse_is_allocation_free_per_call(self, rng):
        mat = random_sparse(rng, 20, 20, density=0.3)
        plan = SpMVPlan(mat)
        x = rng.standard_normal(20)
        out = np.full(20, np.nan)  # stale contents must not leak
        ref = plan.spmv(x)
        result = plan.spmv(x, out=out)
        assert result is out
        assert np.array_equal(out, ref)
        assert plan.calls == 2
        # the plan runs on the matrix's own arrays: no copy, no scratch
        assert all(a is b for a, b in zip(plan._csr, (mat.indptr, mat.indices, mat.data)))

    def test_out_aliasing_input_square(self, rng):
        # the compiled loop reads x while it writes out: aliasing is an
        # error, not a documented feature
        mat = random_sparse(rng, 20, 20, density=0.3)
        plan = SpMVPlan(mat)
        buf = rng.standard_normal(40)
        for x, out in ((buf[:20], buf[:20]), (buf[:20], buf[10:30])):
            with pytest.raises(ValueError, match="share memory"):
                plan.spmv(x, out=out)
            with pytest.raises(ValueError, match="share memory"):
                plan.spmv_t(x, out=out)
        plan.spmv(buf[:20], out=buf[20:])  # disjoint views of one buffer are fine

    def test_out_wrong_shape(self, rng):
        plan = SpMVPlan(random_sparse(rng, 8, 5, density=0.4))
        with pytest.raises(ShapeError):
            plan.spmv(np.ones(5), out=np.empty(4))
        with pytest.raises(ShapeError):
            plan.spmv_t(np.ones(8), out=np.empty(8))
        with pytest.raises(ShapeError):
            plan.spmv(np.ones(8))

    def test_out_wrong_dtype(self, rng):
        plan = SpMVPlan(random_sparse(rng, 8, 5, density=0.4))
        with pytest.raises(TypeError):
            plan.spmv(np.ones(5), out=np.empty(8, dtype=np.float32))
        with pytest.raises(TypeError):
            plan.spmv(np.ones(5), out=[0.0] * 8)
        # SciPy would silently allocate an upcast copy of x
        with pytest.raises(TypeError):
            plan.spmv(np.ones(5, dtype=np.float32))
        with pytest.raises(TypeError):
            plan.spmv_t(np.ones(8, dtype=np.int64))

    @pytest.mark.parametrize(
        "indptr, indices, data",
        [
            ([0, 2, 3], [0, 1, 5], [1.0, 2.0, 3.0]),  # column past ncols
            ([0, 2, 3], [0, -1, 1], [1.0, 2.0, 3.0]),  # negative column
            ([1, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0]),  # indptr[0] != 0
            ([0, 3, 2], [0, 1, 1], [1.0, 2.0, 3.0]),  # decreasing indptr
            ([0, 2, 9], [0, 1, 1], [1.0, 2.0, 3.0]),  # indptr[-1] != nnz
            ([0, 2, 3], [0, 1, 1], [1.0, 2.0]),  # short data
            ([0, 2], [0, 1], [1.0, 2.0]),  # indptr too short for nrows
        ],
    )
    def test_malformed_matrix_rejected_at_construction(self, indptr, indices, data):
        # DistMatrix.from_global builds its blocks with check=False and the
        # compiled loop does no bounds checking: the plan is the gate
        mat = CSRMatrix((2, 3), indptr, indices, data, check=False)
        with pytest.raises(ShapeError):
            SpMVPlan(mat)

    def test_foreign_array_dtypes_rejected_at_construction(self):
        mat = CSRMatrix((2, 3), [0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0])
        mat.indices = mat.indices.astype(np.int32)  # mixed index dtypes
        with pytest.raises(ShapeError, match="int32/int64"):
            SpMVPlan(mat)
        mat = CSRMatrix((2, 3), [0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0])
        mat.data = mat.data.astype(np.float32)
        with pytest.raises(ShapeError, match="float64"):
            SpMVPlan(mat)
        mat.data = np.arange(6.0)[::2]  # strided: SciPy would copy per call
        with pytest.raises(ShapeError, match="contiguous"):
            SpMVPlan(mat)

    @pytest.mark.parametrize("name", ["indptr", "indices"])
    def test_strided_index_arrays_rejected_at_construction(self, name):
        # SciPy would copy a strided index array on every product
        mat = CSRMatrix((2, 3), [0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0])
        setattr(mat, name, np.repeat(getattr(mat, name), 2)[::2])
        with pytest.raises(ShapeError, match="contiguous"):
            SpMVPlan(mat)

    def test_index_arrays_are_stored_contiguous(self):
        # np.nonzero's columns are a strided view: from_dense must not keep it
        mat = CSRMatrix.from_dense(np.eye(4) + np.eye(4, k=1))
        assert mat.indptr.flags.c_contiguous and mat.indices.flags.c_contiguous
        SpMVPlan(mat)

    def test_strided_operands_rejected_per_call(self, rng):
        # SciPy would copy a strided x or out on every call
        plan = SpMVPlan(random_sparse(rng, 8, 5, density=0.4))
        with pytest.raises(ValueError, match="x must be C-contiguous"):
            plan.spmv(np.ones(10)[::2])
        with pytest.raises(ValueError, match="out must be C-contiguous"):
            plan.spmv(np.ones(5), out=np.empty(16)[::2])
        with pytest.raises(ValueError, match="x must be C-contiguous"):
            plan.spmv_t(np.ones(16)[::2])
        with pytest.raises(ValueError, match="out must be C-contiguous"):
            plan.spmv_t(np.ones(8), out=np.empty(10)[::2])
        assert plan.calls == plan.calls_t == 0

    def test_private_scipy_routine_contract(self):
        """What ``SpMVPlan`` relies on from ``scipy.sparse._sparsetools``:
        a SciPy upgrade that changes any of it fails here, by name."""
        from scipy.sparse._sparsetools import csc_matvec, csr_matvec

        indptr = np.array([0, 2, 3], dtype=np.int64)  # int64 accepted as is
        indices = np.array([0, 2, 1], dtype=np.int64)
        data = np.array([1.0, 2.0, 3.0])
        x = np.array([1.0, 10.0, 100.0])
        y = np.array([0.5, 0.25])
        csr_matvec(2, 3, indptr, indices, data, x, y)
        assert y.tolist() == [201.5, 30.25]  # accumulates into y, in place
        yt = np.array([1.0, 1.0, 1.0])
        csc_matvec(3, 2, indptr, indices, data, np.array([1.0, 10.0]), yt)
        assert yt.tolist() == [2.0, 31.0, 3.0]
        with pytest.raises(ValueError):
            csr_matvec(2, 3, indptr, indices, data, x, np.zeros(2, dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_private_scipy_sampler_contract(self, dtype):
        """What ``compute_g_values``' Gram gather relies on from
        ``csr_sample_values(n_row, n_col, Ap, Aj, Ax, n_samples, Bi, Bj, Bx)``:
        ``Bx[s] = A[Bi[s], Bj[s]]`` into a caller-owned ``Bx`` of ``Ax``'s
        dtype, int64 indices as they are, 0 where nothing is stored, stored
        zeros read back.  With ``n_samples > nnz // 10`` SciPy binary-searches
        row ``Bi[s]`` and copies the entry; otherwise it scans the row and
        sums ``0 + Ax``, so a stored ``-0.0`` comes back as ``+0.0``.  The
        gather hands it the rows ``lo … hi`` only (``Ap[lo:hi+2] - Ap[lo]``,
        ``Aj`` and ``Ax`` between, ``Bi - lo``): the same values, with ``nnz``
        that of the slice."""
        from scipy.sparse._sparsetools import csr_sample_values

        # a 10×10 diagonal 1..10 plus a stored -0.0 at (0, 1) and 0.0 at (9, 0)
        n = 10
        indptr = np.array([0, 2, *range(3, 11), 12], dtype=np.int64)
        indices = np.array([0, 1, *range(1, 9), 0, 9], dtype=np.int64)
        data = np.array([1.0, -0.0, *range(2, 10), 0.0, 10.0], dtype=dtype)
        rows = np.array([0, 9, 0, 4, 9, 5], dtype=np.int64)
        cols = np.array([0, 9, 5, 5, 0, 5], dtype=np.int64)
        expect = [1.0, 10.0, 0.0, 0.0, 0.0, 6.0]  # absent, absent, stored 0.0
        for many in (True, False):  # 6 > 12 // 10: search; 1 <= 1: scan
            ask = 6 if many else 1
            out = np.full(ask + 1, 7.0, dtype=dtype)
            csr_sample_values(n, n, indptr, indices, data, ask, rows, cols, out)
            assert out.tolist() == [*expect[:ask], 7.0]  # written up to n_samples
            neg = np.full(ask, 7.0, dtype=dtype)  # lengths are not checked: size Bx
            csr_sample_values(n, n, indptr, indices, data, ask, np.zeros(ask, dtype=np.int64),
                              np.ones(ask, dtype=np.int64), neg)
            assert (neg == 0.0).all() and np.signbit(neg).all() == many  # stored -0.0
        for lo, hi in ((0, 9), (4, 9), (5, 5), (0, 0)):  # a row slice, rebased
            ap = indptr[lo : hi + 2] - indptr[lo]
            aj, ax = indices[indptr[lo] : indptr[hi + 1]], data[indptr[lo] : indptr[hi + 1]]
            inside = (rows >= lo) & (rows <= hi)
            out = np.full(int(inside.sum()), 7.0, dtype=dtype)
            csr_sample_values(hi - lo + 1, n, ap, aj, ax, out.size, rows[inside] - lo,
                              cols[inside], out)
            assert out.tolist() == [e for e, keep in zip(expect, inside) if keep]
        neg = np.full(1, 7.0, dtype=dtype)  # row 0 alone: 1 > 2 // 10, a search
        csr_sample_values(1, n, indptr[:2], indices[:2], data[:2], 1,
                          np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64), neg)
        assert neg[0] == 0.0 and np.signbit(neg[0])
        if dtype == np.float64:
            with pytest.raises(ValueError):  # a narrower Bx is refused
                csr_sample_values(n, n, indptr, indices, data, 6, rows, cols,
                                  np.empty(6, dtype=np.float32))

    def test_private_scipy_gather_and_transpose_contract(self):
        """What ``DistMatrix.from_global``'s ragged gather and
        ``CSRMatrix.transpose`` rely on: ``csr_row_index(n, rows, Ap, Aj, Ax,
        Bj, Bx)`` copies the listed rows' entries, in the listed order and
        each row's stored order, into caller-owned ``Bj`` / ``Bx``;
        ``csr_tocsc(n_row, n_col, Ap, Aj, Ax, Bp, Bi, Bx)`` writes the
        transpose with each column's rows in stored order (a stable counting
        sort), int64 indices as they are."""
        from scipy.sparse._sparsetools import csr_row_index, csr_tocsc

        indptr = np.array([0, 2, 2, 5], dtype=np.int64)  # row 1 empty
        indices = np.array([3, 0, 2, 1, 0], dtype=np.int64)  # row 0 unsorted
        data = np.array([1.0, 2.0, 3.0, -0.0, 5.0])
        rows = np.array([2, 1, 0], dtype=np.int64)
        cols, vals = np.full(5, 9, dtype=np.int64), np.full(5, 9.0)
        csr_row_index(3, rows, indptr, indices, data, cols, vals)
        assert cols.tolist() == [2, 1, 0, 3, 0]
        assert vals.tolist() == [3.0, -0.0, 5.0, 1.0, 2.0] and np.signbit(vals[1])
        t_ptr, t_idx, t_val = (np.empty(5, dtype=np.int64), np.empty(5, dtype=np.int64),
                               np.empty(5))
        csr_tocsc(3, 4, indptr, indices, data, t_ptr, t_idx, t_val)
        assert t_ptr.tolist() == [0, 2, 3, 4, 5]
        assert t_idx.tolist() == [0, 2, 2, 2, 0] and t_val.tolist() == [2.0, 5.0, -0.0, 3.0, 1.0]

    def test_scipy_is_imported_with_the_first_plan_not_the_package(self):
        # scipy.sparse costs ~22 MiB resident (it pulls in numpy.f2py), the
        # compiled loops alone ~2 MiB: importing repro loads neither, the
        # first FSAI set-up (its Gram gather) or plan only the loops, and a
        # later import of scipy.sparse reuses them
        import subprocess
        import sys
        import textwrap

        code = textwrap.dedent("""
            import sys
            import numpy as np
            import repro, repro.kernels
            from repro.matgen import poisson2d
            assert not [m for m in sys.modules if m.startswith("scipy")]
            mat = poisson2d(4)
            repro.build_fsai(mat, repro.RowPartition(np.arange(16) // 8, 2))
            loops = sys.modules["scipy.sparse._sparsetools"]
            loaded = {"scipy", "scipy.sparse", "numpy.f2py"} & set(sys.modules)
            assert not loaded, loaded
            plan = repro.SpMVPlan(mat)
            assert sys.modules["scipy.sparse._sparsetools"] is loops
            assert not {"scipy", "scipy.sparse", "numpy.f2py"} & set(sys.modules)
            import scipy.sparse
            from scipy.sparse import _sparsetools
            assert _sparsetools is loops
            x = np.arange(16.0)
            a = scipy.sparse.csr_array((mat.data, mat.indices, mat.indptr), shape=mat.shape)
            assert np.array_equal(a @ x, plan.spmv(x))
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], env={"PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_concurrent_apply_through_one_plan(self, rng):
        # a plan holds no scratch: many threads, one plan, distinct out
        import sys
        import threading

        mat = poisson2d(40)
        plan = SpMVPlan(mat)
        nthreads = 4
        xs = [rng.standard_normal(mat.ncols) for _ in range(nthreads)]
        refs = [mat.spmv(x) for x in xs]
        outs = [np.empty(mat.nrows) for _ in range(nthreads)]
        bad: list[int] = []
        barrier = threading.Barrier(nthreads)

        def worker(k):
            barrier.wait(timeout=30)
            for _ in range(200):
                plan.spmv(xs[k], out=outs[k])
                if not np.allclose(outs[k], refs[k], atol=1e-12):
                    bad.append(k)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(nthreads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not bad


class TestCSROutAliasing:
    def test_spmv_out_aliases_input(self, rng):
        mat = random_sparse(rng, 15, 15, density=0.3)
        x = rng.standard_normal(15)
        ref = mat.spmv(x.copy())
        buf = x.copy()
        mat.spmv(buf, out=buf)
        assert np.array_equal(buf, ref)

    def test_spmv_transpose_out_aliases_input(self, rng):
        mat = random_sparse(rng, 15, 15, density=0.3)
        x = rng.standard_normal(15)
        ref = mat.spmv_transpose(x.copy())
        buf = x.copy()
        mat.spmv_transpose(buf, out=buf)
        assert np.array_equal(buf, ref)

    def test_out_wrong_dtype_rejected(self, rng):
        mat = random_sparse(rng, 6, 6, density=0.4)
        with pytest.raises(TypeError):
            mat.spmv(np.ones(6), out=np.empty(6, dtype=np.float32))
        with pytest.raises(TypeError):
            mat.spmv_transpose(np.ones(6), out=np.empty(6, dtype=int))


class TestFromCooCanonical:
    def test_canonical_fast_path_matches_sort_path(self, rng):
        dense = rng.standard_normal((9, 7))
        dense[np.abs(dense) < 0.6] = 0.0
        rows, cols = np.nonzero(dense)
        vals = dense[rows, cols]
        a = CSRMatrix.from_coo(dense.shape, rows, cols, vals)
        b = CSRMatrix.from_coo(dense.shape, rows, cols, vals, canonical=True)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)


def textbook_pcg(mat, b, g, rtol=1e-8, max_iterations=10_000):
    """Independent oracle: textbook PCG on global NumPy arrays.

    ``z = Gᵀ(G·r)`` with the assembled global factor; shares nothing with
    ``repro.core`` beyond ``CSRMatrix.spmv``.  Returns ``(x, iterations)``.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = g.spmv_transpose(g.spmv(r))
    d = z.copy()
    rz = r @ z
    target = rtol * np.linalg.norm(b)
    iterations = 0
    while np.linalg.norm(r) > target and iterations < max_iterations:
        ad = mat.spmv(d)
        alpha = rz / (d @ ad)
        x += alpha * d
        r -= alpha * ad
        z = g.spmv_transpose(g.spmv(r))
        rz, rz_old = r @ z, rz
        d = z + (rz / rz_old) * d
        iterations += 1
    return x, iterations


def assert_solves_like_oracle(result, mat, b, x_ref, rtol=1e-8):
    """True residual within 10·rtol and the oracle's solution to 1e-6."""
    x, rhs = result.x.to_global(), b.to_global()
    assert result.converged
    assert np.linalg.norm(rhs - mat.spmv(x)) <= 10 * rtol * np.linalg.norm(rhs)
    assert np.allclose(x, x_ref, rtol=1e-6, atol=1e-6 * np.abs(x_ref).max())


@pytest.fixture
def dist_setup():
    mat = poisson2d(16)
    part = RowPartition.contiguous(mat.nrows, 4)
    dmat = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=3), part)
    return mat, part, dmat, b


class TestSolverWorkspace:
    def test_workspace_spmv_matches_legacy(self, dist_setup, rng):
        mat, part, dmat, _ = dist_setup
        ws = SolverWorkspace(dmat)
        x = DistVector.from_global(rng.standard_normal(mat.nrows), part)
        out = DistVector.zeros(part)
        ws.spmv(dmat, x, out=out)  # warm-up
        with tracing(NULL_TRACER) as (_, metrics):
            ws.spmv(dmat, x, out=out)
            assert not metrics.value("kernels.allocs")
            legacy = dmat.spmv(x)
            # the reference kernel allocates halo buffers, operands, results
            assert metrics.value("kernels.allocs") == 3 * part.nparts
        for p in range(part.nparts):
            # the compiled kernel agrees to rounding with the reference
            # reduceat kernel (see repro.kernels.plan)
            assert np.allclose(out.parts[p], legacy.parts[p], atol=1e-13)

    def test_partition_mismatch_rejected(self, dist_setup):
        mat, part, dmat, _ = dist_setup
        ws = SolverWorkspace(dmat)
        other = RowPartition.contiguous(mat.nrows, 2)
        x = DistVector.zeros(other)
        with pytest.raises(ShapeError):
            ws.spmv(dmat, x)

    def test_float32_operand_rejected(self, dist_setup):
        _, part, dmat, _ = dist_setup
        ws = SolverWorkspace(dmat)
        x = DistVector.zeros(part)
        x.parts[0] = x.parts[0].astype(np.float32)
        with pytest.raises(ValueError, match="float64"):
            ws.spmv(dmat, x)

    def test_non_array_operand_rejected(self, dist_setup):
        _, part, dmat, _ = dist_setup
        ws = SolverWorkspace(dmat)
        x = DistVector.zeros(part)
        x.parts[0] = list(x.parts[0])
        with pytest.raises(ValueError, match="numpy arrays"):
            ws.spmv(dmat, x)

    def test_float32_out_rejected(self, dist_setup, rng):
        mat, part, dmat, _ = dist_setup
        ws = SolverWorkspace(dmat)
        x = DistVector.from_global(rng.standard_normal(mat.nrows), part)
        out = DistVector.zeros(part)
        out.parts[1] = out.parts[1].astype(np.float32)
        with pytest.raises(ValueError, match="float64"):
            ws.spmv(dmat, x, out=out)

    def test_halo_update_rejects_float32_buffers(self, dist_setup):
        mat, part, dmat, _ = dist_setup
        x_parts = [np.zeros(part.global_ids[p].size) for p in range(part.nparts)]
        bad = [
            np.zeros(dmat.schedule.halo_size(p), dtype=np.float32)
            for p in range(part.nparts)
        ]
        with pytest.raises(ValueError, match="float64"):
            dmat.schedule.update(x_parts, out=bad)

    def test_workspaces_share_the_matrix_operator(self, dist_setup):
        _, _, dmat, b = dist_setup
        ws = SolverWorkspace(dmat)
        op = dmat.operator()
        ws.spmv(dmat, b)
        ws.spmv(dmat, b)
        assert SolverWorkspace(dmat).operator(dmat).plan is op is dmat.operator()
        # the local blocks' values are views of the operator's: stored once
        for lm in dmat.locals:
            assert np.shares_memory(lm.csr.data, op.mat.data)

    def test_pcg_matches_textbook_oracle(self, dist_setup):
        mat, part, dmat, b = dist_setup
        pre = build_fsai(mat, part)
        x_ref, iterations = textbook_pcg(mat, b.to_global(), pre.g.to_global())
        fused = pcg(dmat, b, precond=pre, workspace=SolverWorkspace(dmat))
        # planned kernels sum rows in a different order than CSRMatrix.spmv,
        # so the recurrences agree to rounding, not bitwise
        assert abs(fused.iterations - iterations) <= 2
        assert_solves_like_oracle(fused, mat, b, x_ref)

    def test_pcg_zero_hot_allocations_after_warmup(self, dist_setup):
        mat, part, dmat, b = dist_setup
        pre = build_fsai(mat, part)
        ws = SolverWorkspace(dmat)
        pcg(dmat, b, precond=pre, workspace=ws)  # warm-up
        before = ws.allocations
        result = pcg(dmat, b, precond=pre, workspace=ws)
        assert result.converged
        assert ws.allocations == before

    def test_result_vector_does_not_alias_workspace(self, dist_setup):
        mat, part, dmat, b = dist_setup
        pre = build_fsai(mat, part)
        ws = SolverWorkspace(dmat)
        first = pcg(dmat, b, precond=pre, workspace=ws)
        snapshot = [p.copy() for p in first.x.parts]
        pcg(dmat, b, precond=pre, workspace=ws)
        for p in range(part.nparts):
            assert np.array_equal(first.x.parts[p], snapshot[p])

    @pytest.mark.parametrize("solver", [pipelined_pcg])
    def test_variant_solvers_match_textbook_oracle(self, dist_setup, solver):
        mat, part, dmat, b = dist_setup
        pre = build_fsai(mat, part)
        x_ref, _ = textbook_pcg(mat, b.to_global(), pre.g.to_global())
        result = solver(dmat, b, precond=pre, workspace=SolverWorkspace(dmat))
        assert_solves_like_oracle(result, mat, b, x_ref)

    def test_supports_workspace_detection(self, dist_setup):
        mat, part, _, _ = dist_setup
        pre = build_fsai(mat, part)
        assert supports_workspace(pre.apply)
        assert not supports_workspace(lambda r, tracker: r)
        assert not supports_workspace(None)

    def test_legacy_callable_precond_still_works(self, dist_setup):
        mat, part, dmat, b = dist_setup
        pre = build_fsai(mat, part)

        def apply_m(r, tracker=None):
            return pre.apply(r, tracker)

        result = pcg(dmat, b, precond=apply_m)
        reference = pcg(dmat, b, precond=pre)
        assert result.converged
        assert abs(result.iterations - reference.iterations) <= 2
