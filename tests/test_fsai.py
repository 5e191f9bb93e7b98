"""Unit tests for the FSAI factor computation (Alg. 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ExtensionMode,
    ExtensionWorkspace,
    FSAIOptions,
    SetupOptions,
    compute_g_values,
    fsai_pattern,
)
from repro.dist import RowPartition
from repro.errors import NotSPDError, ShapeError, SparseFormatError
from repro.matgen import circuit_laplacian, elasticity3d, poisson2d
from repro.sparse import CSRMatrix, SparsityPattern

from conftest import random_sparse


def fsai_g(mat: CSRMatrix, options: FSAIOptions = FSAIOptions()) -> CSRMatrix:
    """Alg. 1 end to end: the a-priori pattern, then its values."""
    return compute_g_values(mat, fsai_pattern(mat, options))


def condition_number(dense: np.ndarray) -> float:
    w = np.linalg.eigvalsh(dense)
    return w[-1] / w[0]


class TestPattern:
    def test_default_pattern_is_lower_of_a(self, small_spd):
        pat = fsai_pattern(small_spd)
        lower = SparsityPattern.from_csr(small_spd.extract_lower())
        assert pat == lower.with_diagonal()

    def test_level2_pattern_is_superset(self, small_spd):
        p1 = fsai_pattern(small_spd, FSAIOptions(level=1))
        p2 = fsai_pattern(small_spd, FSAIOptions(level=2))
        assert p1.issubset(p2)

    def test_threshold_sparsifies(self, poisson16):
        dense_pat = fsai_pattern(poisson16, FSAIOptions(level=2))
        sparse_pat = fsai_pattern(poisson16, FSAIOptions(level=2, threshold=0.9))
        assert sparse_pat.nnz < dense_pat.nnz

    def test_pattern_is_lower_triangular(self, small_spd):
        pat = fsai_pattern(small_spd, FSAIOptions(level=2))
        for i in range(pat.nrows):
            row = pat.row(i)
            assert row.size >= 1
            assert row[-1] == i  # diagonal last
            assert np.all(row <= i)

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ShapeError):
            fsai_pattern(random_sparse(rng, 3, 5))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FSAIOptions(threshold=-1.0)
        with pytest.raises(ValueError):
            FSAIOptions(level=0)

    def test_no_post_filter_option(self):
        """No builder read it, so it was silently ignored: it is gone."""
        with pytest.raises(TypeError):
            FSAIOptions(post_filter=0.1)


class TestValues:
    def test_unit_diagonal_of_gagt(self, small_spd):
        g = fsai_g(small_spd)
        dense = g.to_dense() @ small_spd.to_dense() @ g.to_dense().T
        assert np.allclose(np.diag(dense), 1.0)

    def test_factor_is_lower_triangular_with_positive_diagonal(self, small_spd):
        g = fsai_g(small_spd)
        dense = g.to_dense()
        assert np.allclose(dense, np.tril(dense))
        assert np.all(np.diag(dense) > 0)

    def test_improves_conditioning(self, poisson16):
        a_dense = poisson16.to_dense()
        g = fsai_g(poisson16)
        precond = g.to_dense() @ a_dense @ g.to_dense().T
        assert condition_number(precond) < condition_number(a_dense)

    def test_level2_improves_over_level1(self, poisson16):
        a_dense = poisson16.to_dense()
        c = []
        for level in (1, 2):
            g = fsai_g(poisson16, FSAIOptions(level=level)).to_dense()
            c.append(condition_number(g @ a_dense @ g.T))
        assert c[1] < c[0]

    def test_diagonal_matrix_gives_exact_inverse_sqrt(self):
        diag = np.array([4.0, 9.0, 16.0])
        mat = CSRMatrix.from_dense(np.diag(diag))
        g = fsai_g(mat)
        assert np.allclose(g.to_dense(), np.diag(1.0 / np.sqrt(diag)))

    def test_full_pattern_reproduces_exact_inverse_factor(self, small_spd):
        """With a full lower-triangular pattern, G A Gᵀ must equal I."""
        n = small_spd.nrows
        full = SparsityPattern.from_rows(
            (n, n), [list(range(i + 1)) for i in range(n)]
        )
        g = compute_g_values(small_spd, full).to_dense()
        assert np.allclose(g @ small_spd.to_dense() @ g.T, np.eye(n), atol=1e-8)

    def test_richer_pattern_lowers_frobenius_objective(self, poisson16):
        a_dense = poisson16.to_dense()
        chol = np.linalg.cholesky(a_dense)
        errs = []
        for level in (1, 2):
            g = fsai_g(poisson16, FSAIOptions(level=level)).to_dense()
            errs.append(np.linalg.norm(np.eye(poisson16.nrows) - g @ chol))
        assert errs[1] < errs[0]

    def test_pattern_shape_mismatch(self, small_spd):
        with pytest.raises(ShapeError):
            compute_g_values(small_spd, SparsityPattern.identity(small_spd.nrows + 1))

    def test_pattern_missing_diagonal_rejected(self, small_spd):
        n = small_spd.nrows
        rows = [[i] for i in range(n)]
        rows[3] = []  # no diagonal on row 3
        pat = SparsityPattern.from_rows((n, n), rows)
        with pytest.raises(ShapeError):
            compute_g_values(small_spd, pat)

    def test_non_lower_pattern_rejected(self, small_spd):
        n = small_spd.nrows
        rows = [[i] for i in range(n)]
        rows[0] = [0, 5]  # upper entry
        pat = SparsityPattern.from_rows((n, n), rows)
        with pytest.raises(ShapeError):
            compute_g_values(small_spd, pat)

    def test_indefinite_matrix_raises(self):
        dense = np.array([[1.0, 4.0], [4.0, 1.0]])
        mat = CSRMatrix.from_dense(dense)
        pat = SparsityPattern.from_rows((2, 2), [[0], [0, 1]])
        with pytest.raises(NotSPDError):
            compute_g_values(mat, pat)

    def test_permutation_invariance_of_diagonal_scaling(self, rng):
        """Scaling A by a positive diagonal must not change GAGᵀ."""
        mat = poisson2d(6)
        scale = rng.uniform(0.5, 2.0, mat.nrows)
        d = np.diag(scale)
        scaled = CSRMatrix.from_dense(d @ mat.to_dense() @ d)
        g1 = fsai_g(mat).to_dense()
        g2 = fsai_g(scaled).to_dense()
        m1 = g1 @ mat.to_dense() @ g1.T
        m2 = g2 @ scaled.to_dense() @ g2.T
        assert np.allclose(m1, m2, atol=1e-10)


def compute_g_values_per_row(mat, pattern, *, dtype=np.float64) -> CSRMatrix:
    """Reference for step 3 of Alg. 1: one dense solve per row.

    The historical (seed) set-up loop, kept here as the oracle the batched
    :func:`compute_g_values` is checked against; values agree to LAPACK
    rounding (within 1e-12 on well-conditioned fp64 inputs).
    """
    n = mat.nrows
    data = np.empty(pattern.nnz, dtype=np.float64)
    for i in range(n):
        lo, hi = int(pattern.indptr[i]), int(pattern.indptr[i + 1])
        idx = pattern.indices[lo:hi]
        sub = mat.submatrix(idx, idx).astype(dtype, copy=False)
        rhs = np.zeros(hi - lo, dtype=dtype)
        rhs[-1] = 1.0
        y = np.linalg.solve(sub, rhs)
        data[lo:hi] = y / np.sqrt(y[-1])
    return CSRMatrix(
        (n, n), pattern.indptr.copy(), pattern.indices.copy(), data, check=False
    )


class TestBatchedEquivalence:
    """Batched group solves vs the per-row reference loop."""

    @pytest.mark.parametrize("level", [1, 2])
    def test_structure_identical_and_values_close(self, poisson16, level):
        pattern = fsai_pattern(poisson16, FSAIOptions(level=level))
        per_row = compute_g_values_per_row(poisson16, pattern)
        batched = compute_g_values(poisson16, pattern)
        assert per_row.nnz == batched.nnz
        assert np.array_equal(per_row.indptr, batched.indptr)
        assert np.array_equal(per_row.indices, batched.indices)
        assert np.max(np.abs(per_row.data - batched.data)) <= 1e-12

    def test_small_spd_values_close(self, small_spd):
        pattern = fsai_pattern(small_spd, FSAIOptions(level=2))
        per_row = compute_g_values_per_row(small_spd, pattern)
        batched = compute_g_values(small_spd, pattern)
        assert np.allclose(per_row.data, batched.data, rtol=0, atol=1e-12)

    def test_singleton_groups(self):
        # diagonal matrix: every pattern row is the lone size-1 group member
        mat = CSRMatrix.from_dense(np.diag([4.0, 9.0, 16.0]))
        pattern = fsai_pattern(mat)
        g = compute_g_values(mat, pattern)
        ref = compute_g_values_per_row(mat, pattern)
        assert np.array_equal(g.data, ref.data)
        assert np.allclose(g.data, [0.5, 1.0 / 3.0, 0.25])

    def test_mixed_group_sizes(self, rng):
        # random SPD: row pattern sizes vary, including singleton groups
        mat = small_spd_like(rng, 14)
        pattern = fsai_pattern(mat, FSAIOptions(level=2))
        sizes = np.diff(pattern.indptr)
        assert np.unique(sizes).size > 1  # the case under test
        per_row = compute_g_values_per_row(mat, pattern)
        batched = compute_g_values(mat, pattern)
        assert np.max(np.abs(per_row.data - batched.data)) <= 1e-12

    def test_batch_split_changes_no_value(self, poisson16, monkeypatch):
        """Size-groups are solved in bounded batches to cap peak memory; every
        system is its own LAPACK call, so any split gives the same bits."""
        from repro.core import fsai

        pattern = fsai_pattern(poisson16, FSAIOptions(level=2))
        monkeypatch.setattr(fsai, "_BATCH_ENTRIES", 1 << 62)  # one batch per group
        whole = compute_g_values(poisson16, pattern)
        for entries in (1, 50, 1000):  # one row per batch, ragged tails, several rows
            monkeypatch.setattr(fsai, "_BATCH_ENTRIES", entries)
            assert compute_g_values(poisson16, pattern).data.tobytes() == whole.data.tobytes()

    def test_fallback_shifts_only_the_singular_row(self, monkeypatch):
        """Rows ``2j`` and ``2j + 1`` nest, so each pair is one supernode.
        One singular block sends its batch back to one supernode at a time,
        and only the supernode that fails alone goes to the guarded per-row
        path; healthy rows must come out unshifted, so G is the same
        whichever rows shared a batch with the singular one — and whichever
        gather arm read its block."""
        from repro.core import fsai

        dense = np.kron(np.eye(5), np.array([[2.0, 1.0], [1.0, 2.0]]))
        dense[4:6, 4:6] = 1.0  # PSD and exactly singular
        mat = CSRMatrix.from_dense(dense)
        pattern = SparsityPattern.from_rows(
            (10, 10), [[i] if i % 2 == 0 else [i - 1, i] for i in range(10)]
        )
        healthy = np.ones(10, dtype=bool)
        healthy[4:6] = False
        oracle = compute_g_values_per_row(
            CSRMatrix.from_dense(dense[np.ix_(healthy, healthy)]),
            SparsityPattern.from_rows(
                (8, 8), [[i] if i % 2 == 0 else [i - 1, i] for i in range(8)]
            ),
        )
        keep = np.repeat(healthy, np.diff(pattern.indptr))
        for arm in ("search", "table"):
            force_gather_arm(monkeypatch, arm)
            monkeypatch.setattr(fsai, "_BATCH_ENTRIES", 1 << 62)  # singular row + 4 healthy
            whole, table_rows, _ = gathered(mat, pattern)
            assert table_rows == (10 if arm == "table" else 0)
            monkeypatch.setattr(fsai, "_BATCH_ENTRIES", 1)  # every row alone
            alone = compute_g_values(mat, pattern)
            assert whole.data.tobytes() == alone.data.tobytes()
            assert np.isfinite(whole.data).all()
            assert np.max(np.abs(whole.data[keep] - oracle.data)) <= 1e-12

    def test_gather_arm_changes_no_value(self, poisson16, monkeypatch):
        """The table arm and the search arm read the same stored values: on
        the same batches they give the same bits, through the rule's default
        choice, either arm forced, and the cap-only halving."""
        pattern = fsai_pattern(poisson16, FSAIOptions(level=3))
        reference = compute_g_values(poisson16, pattern)
        for arm in ("search", "table", "halve"):
            force_gather_arm(monkeypatch, arm)
            g, table_rows, search_rows = gathered(poisson16, pattern)
            assert g.data.tobytes() == reference.data.tobytes(), arm
            assert table_rows + search_rows == poisson16.nrows
            if arm == "search":
                assert table_rows == 0
            elif arm == "table":
                assert search_rows == 0
            else:  # only one-row batches of blocks within the cap reach the table
                assert 0 < table_rows < poisson16.nrows

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_sampler_scan_and_search_branches_match_the_oracle(
        self, poisson16, monkeypatch, dtype
    ):
        """The compiled gather is handed the rows ``idx.min() … idx.max()``
        of ``A`` and scans a row when a batch asks for at most a tenth of
        their entries, binary-searching it otherwise.  On the ``{0, i}``
        pattern a one-supernode batch of a late row spans most of ``A`` and
        takes the scan, a whole size-group the search; on the level-2
        pattern every batch searches.  Every branch and arm gives the same
        bits — in either compute dtype — and the per-row oracle's values."""
        from repro.core import fsai

        n = poisson16.nrows
        wide = SparsityPattern.from_rows((n, n), [[0]] + [[0, i] for i in range(1, n)])
        assert 2 * 2 <= poisson16.indptr[n] // 10  # row n-1 alone: a scan
        assert (n - 2) * 2 * 2 > poisson16.nnz // 10  # rows 2 … n-1 at once: a search
        setup = SetupOptions(dtype=dtype)
        tol = {"float64": dict(rtol=0, atol=1e-12), "float32": dict(rtol=1e-5, atol=1e-6)}
        for pattern in (wide, fsai_pattern(poisson16, FSAIOptions(level=2))):
            oracle = compute_g_values_per_row(poisson16, pattern, dtype=np.dtype(dtype).type)
            seen = []
            for arm, entries in (("search", 1), ("search", 1 << 62), ("table", 1 << 62)):
                force_gather_arm(monkeypatch, arm)
                monkeypatch.setattr(fsai, "_BATCH_ENTRIES", entries)
                g, table_rows, search_rows = gathered(poisson16, pattern, setup=setup)
                seen.append(g.data.tobytes())
                assert (table_rows, search_rows) == ((n, 0) if arm == "table" else (0, n))
            assert len(set(seen)) == 1
            assert np.allclose(g.data, oracle.data, **tol[dtype])

    @pytest.mark.parametrize(
        "fault", ["duplicate", "unsorted", "indptr", -1, 38, 293, 1 << 40]
    )
    def test_non_canonical_matrix_rejected(self, poisson16, fault):
        """The compiled gather reads ``A`` as canonical CSR, at the pattern's
        indices, with no bound check; a matrix or pattern built with
        ``check=False`` that breaks this fails by name instead of reading
        one of ``A``'s duplicates or past its arrays.  An integer ``fault``
        is a column put in row 37 of the pattern, before its diagonal:
        negative, above the diagonal, past ``n``."""
        indptr, indices = poisson16.indptr.copy(), poisson16.indices.copy()
        pattern = fsai_pattern(poisson16)
        lo = indptr[37]
        if fault == "duplicate":
            indices[lo + 1] = indices[lo]
        elif fault == "unsorted":
            indices[lo : lo + 2] = indices[lo : lo + 2][::-1].copy()
        elif fault == "indptr":
            indptr[38] = indptr[37] - 1
        else:
            cols = pattern.indices.copy()
            cols[pattern.indptr[37]] = fault
            pattern = SparsityPattern(pattern.shape, pattern.indptr, cols, check=False)
            with pytest.raises(ShapeError, match="row 37: pattern is not lower triangular"):
                compute_g_values(poisson16, pattern)
            return
        bad = CSRMatrix(poisson16.shape, indptr, indices, poisson16.data, check=False)
        match = "non-decreasing" if fault == "indptr" else "row 37: column indices"
        with pytest.raises(SparseFormatError, match=match):
            compute_g_values(bad, pattern)

    @pytest.mark.parametrize("arm", ["search", "table"])
    def test_gather_arms_on_degenerate_batches(self, monkeypatch, arm):
        force_gather_arm(monkeypatch, arm)
        mat = CSRMatrix.from_dense(np.diag([4.0, 9.0, 16.0]))
        pattern = fsai_pattern(mat)  # three 1×1 blocks
        g, table_rows, search_rows = gathered(mat, pattern)
        assert np.array_equal(g.data, [0.5, 1.0 / 3.0, 0.25])
        assert (table_rows, search_rows) == ((3, 0) if arm == "table" else (0, 3))
        untouched = np.full(3, 7.0)
        g, table_rows, search_rows = gathered(
            mat, pattern, rows=np.empty(0, dtype=np.int64), out=untouched
        )
        assert (table_rows, search_rows) == (0, 0)
        assert np.array_equal(g.data, [7.0, 7.0, 7.0])

    def test_fp32_setup_close_to_fp64(self, poisson16):
        pattern = fsai_pattern(poisson16)
        g64 = compute_g_values(poisson16, pattern)
        g32 = compute_g_values(
            poisson16, pattern, setup=SetupOptions(dtype="float32")
        )
        assert g32.data.dtype == np.float64  # storage stays float64
        assert np.allclose(g64.data, g32.data, rtol=1e-4, atol=1e-5)

    def test_fp32_batched_matches_fp32_per_row(self, poisson16):
        pattern = fsai_pattern(poisson16)
        per_row = compute_g_values_per_row(poisson16, pattern, dtype=np.float32)
        batched = compute_g_values(
            poisson16, pattern, setup=SetupOptions(dtype="float32")
        )
        assert np.allclose(per_row.data, batched.data, rtol=1e-5, atol=1e-6)

    def test_bad_setup_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            SetupOptions(dtype="float16")

    def test_batched_metrics_counters(self, poisson16):
        from repro.core.fsai import _supernode_heads
        from repro.instrument import NULL_TRACER, tracing

        pattern = fsai_pattern(poisson16)
        heads = _supernode_heads(pattern, pattern.row_nnz())
        assert heads.size < poisson16.nrows  # rows 0 and 1 nest
        with tracing(NULL_TRACER) as (_, metrics):
            compute_g_values(poisson16, pattern)
            assert (metrics.value("fsai.batched_groups") or 0) >= 1
            assert metrics.value("fsai.supernodes") == heads.size
            assert metrics.value("fsai.batched_rows") == poisson16.nrows
            assert (
                metrics.value("fsai.gather.table_rows")
                + metrics.value("fsai.gather.search_rows")
            ) == poisson16.nrows

    def test_halo_schedules_invariant_across_setup_paths(self):
        from repro.core.precond import Preconditioner, build_fsai, check_comm_invariance
        from repro.dist import DistMatrix, RowPartition
        from repro.observe import compare_snapshots, schedule_snapshot

        mat = poisson2d(10)
        part = RowPartition.contiguous(mat.nrows, 4)
        batched = build_fsai(mat, part)
        g_ref = compute_g_values_per_row(mat, fsai_pattern(mat))
        per_row = Preconditioner(
            name="FSAI-per-row",
            g=DistMatrix.from_global(g_ref, part),
            gt=DistMatrix.from_global(g_ref.transpose(), part),
            base_nnz=g_ref.nnz,
            nnz=g_ref.nnz,
            filters=np.zeros(part.nparts),
        )
        assert check_comm_invariance(batched, per_row)
        for sched_b, sched_p in ((batched.g.schedule, per_row.g.schedule),
                                 (batched.gt.schedule, per_row.gt.schedule)):
            verdict = compare_snapshots(schedule_snapshot(sched_b), schedule_snapshot(sched_p))
            assert verdict.invariant, verdict.render()
            assert sched_b == sched_p
            for cb, cp in zip(sched_b.ext_cols, sched_p.ext_cols):
                assert cb.tobytes() == cp.tobytes()


class TestSupernodes:
    """Rows whose patterns nest are solved together, and nothing shows it."""

    @staticmethod
    def heads_by_loop(pattern) -> list[int]:
        """Row ``i`` joins row ``i + 1`` when ``S_{i+1} = S_i ∪ {i+1}``."""
        n = pattern.nrows
        return [i for i in range(n) if i == n - 1
                or list(pattern.row(i + 1)) != [*pattern.row(i), i + 1]]

    @staticmethod
    def nested(mat, line_bytes=256):
        """The FSAIE-Comm extended pattern of ``mat`` on 2 ranks: the
        cache-line extension makes runs of consecutive rows nest."""
        ws = ExtensionWorkspace("X", mat, RowPartition.contiguous(mat.nrows, 2),
                                ExtensionMode.COMM, line_bytes=line_bytes)
        return SparsityPattern.from_csr(ws.g_pre)

    def test_heads_are_where_nesting_stops(self, poisson16, small_spd, rng):
        from repro.core.fsai import _supernode_heads

        n = small_spd.nrows
        full = SparsityPattern.from_rows((n, n), [list(range(i + 1)) for i in range(n)])
        irregular = small_spd_like(rng, 30)
        for pattern, heads in (
            (fsai_pattern(poisson16), None),
            (fsai_pattern(poisson16, FSAIOptions(level=3)), None),
            (full, [n - 1]),  # one supernode of every row
            (SparsityPattern.identity(5), [0, 1, 2, 3, 4]),
            (fsai_pattern(irregular, FSAIOptions(level=2)), None),
            (self.nested(elasticity3d(3, 3, 3)), None),
        ):
            expect = self.heads_by_loop(pattern)
            assert _supernode_heads(pattern, pattern.row_nnz()).tolist() == expect
            assert heads is None or expect == heads

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_nested_rows_keep_their_bits(self, monkeypatch, dtype):
        """A row's value depends on ``A``, the pattern and the dtype alone:
        not on which rows a call selects (a supernode is solved whole and
        only the selected rows are written), nor on how batches split."""
        from repro.core import fsai

        mat = elasticity3d(3, 3, 3)
        pattern = self.nested(mat)
        heads = fsai._supernode_heads(pattern, pattern.row_nnz())
        assert np.diff(heads, prepend=-1).max() >= 8  # long runs: the case under test
        setup = SetupOptions(dtype=dtype)
        full = compute_g_values(mat, pattern, setup=setup)
        owner = np.repeat(np.arange(mat.nrows), pattern.row_nnz())
        for rows in (np.arange(0, mat.nrows, 3), np.array([5]), heads[::2]):
            buf = np.full(pattern.nnz, -5.0)
            compute_g_values(mat, pattern, setup=setup, rows=rows, out=buf)
            inside = np.isin(owner, rows)
            assert buf[inside].tobytes() == full.data[inside].tobytes()
            assert np.all(buf[~inside] == -5.0)
        for entries in (1, 5000):
            monkeypatch.setattr(fsai, "_BATCH_ENTRIES", entries)
            g = compute_g_values(mat, pattern, setup=setup)
            assert g.data.tobytes() == full.data.tobytes()
        per_row = compute_g_values_per_row(mat, pattern, dtype=np.dtype(dtype).type)
        tol = {"float64": dict(rtol=0, atol=1e-12), "float32": dict(rtol=1e-5, atol=1e-6)}
        assert np.allclose(full.data, per_row.data, **tol[dtype])

    def test_not_spd_error_names_the_row(self):
        """A row whose system stays indefinite after every shift is named,
        with its pattern size, whether it heads a supernode or not."""
        dense = np.diag([2.0, 3.0, 2.0, 2.0, 4.0])
        dense[2, 3] = dense[3, 2] = 5.0  # [[2, 5], [5, 2]] is indefinite
        mat = CSRMatrix.from_dense(dense)
        for rows, size in (([[0], [1], [2], [2, 3], [4]], 2),  # rows 2, 3 nest
                           ([[0], [1], [2], [1, 2, 3], [4]], 3)):
            pattern = SparsityPattern.from_rows((5, 5), rows)
            with pytest.raises(NotSPDError, match=rf"row 3 \(pattern size {size}\)"):
                compute_g_values(mat, pattern)


def kolotilina_yeremin(mat: CSRMatrix, g: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``G``, the two conditions that define it on its pattern
    ``S_i`` (Kolotilina–Yeremin 1993), each normalized by ``‖A_S‖_F ‖g_i‖``:
    the residual of ``A[S_i, S_i] g_iᵀ = e_last / g_ii`` and the deviation of
    ``(G A Gᵀ)_ii = g_i A[S_i, S_i] g_iᵀ`` from 1 (further divided by
    ``‖g_i‖``).  Written from the definition, one dense block per row."""
    dense = mat.to_dense()
    residual, deviation = np.empty(g.nrows), np.empty(g.nrows)
    for i in range(g.nrows):
        lo, hi = g.indptr[i], g.indptr[i + 1]
        cols, gi = g.indices[lo:hi], g.data[lo:hi]
        block = dense[np.ix_(cols, cols)]
        target = np.zeros(cols.size)
        target[-1] = 1.0 / gi[-1]
        scale = np.linalg.norm(block) * np.linalg.norm(gi)
        residual[i] = np.linalg.norm(block @ gi - target) / scale
        deviation[i] = abs(gi @ block @ gi - 1.0) / (scale * np.linalg.norm(gi))
    return residual, deviation


class TestKolotilinaYeremin:
    """Every row of ``G`` satisfies the conditions that define FSAI on its
    pattern, to 64 units of rounding: on the sweep's extended patterns
    (``elasticity3d(8, 8, 8)``, 4 ranks, both modes, 64 B and 256 B lines —
    long nested runs, blocks up to condition 1e7) and on a circuit graph."""

    @pytest.mark.parametrize("line_bytes", [64, 256])
    def test_extended_elasticity(self, line_bytes):
        mat = elasticity3d(8, 8, 8)
        part = RowPartition.contiguous(mat.nrows, 4)
        for mode in (ExtensionMode.LOCAL, ExtensionMode.COMM):
            g = ExtensionWorkspace("X", mat, part, mode, line_bytes=line_bytes).g_pre
            self.check(mat, g)

    def test_circuit_laplacian(self):
        mat = circuit_laplacian(1500)
        part = RowPartition.contiguous(mat.nrows, 4)
        self.check(mat, fsai_g(mat))
        self.check(mat, ExtensionWorkspace("X", mat, part, ExtensionMode.COMM).g_pre)

    @staticmethod
    def check(mat, g):
        residual, deviation = kolotilina_yeremin(mat, g)
        eps = np.finfo(np.float64).eps
        assert residual.max() <= 64 * eps, int(residual.argmax())
        assert deviation.max() <= 64 * eps, int(deviation.argmax())


class TestRowSubset:
    """``rows=`` / ``out=``: solve some rows into a caller's value array."""

    def test_solves_exactly_the_selected_rows(self, poisson16):
        from repro.instrument import NULL_TRACER, tracing

        pattern = fsai_pattern(poisson16, FSAIOptions(level=2))
        full = compute_g_values(poisson16, pattern)
        subset = np.array([200, 3, 17, 17, 255, 0])  # unsorted, one repeat
        buf = np.full(pattern.nnz, -5.0)
        with tracing(NULL_TRACER) as (_, metrics):
            g = compute_g_values(poisson16, pattern, rows=subset, out=buf)
            assert metrics.value("fsai.batched_rows") == 5
        assert g.data is buf
        inside = np.isin(np.repeat(np.arange(256), pattern.row_nnz()), subset)
        assert np.array_equal(buf[inside], full.data[inside])
        assert np.all(buf[~inside] == -5.0)

    def test_all_rows_in_two_halves_is_the_full_factor(self, poisson16):
        pattern = fsai_pattern(poisson16, FSAIOptions(level=2))
        full = compute_g_values(poisson16, pattern)
        buf = np.empty(pattern.nnz)
        compute_g_values(poisson16, pattern, rows=np.arange(0, 256, 2), out=buf)
        compute_g_values(poisson16, pattern, rows=np.arange(1, 256, 2), out=buf)
        assert buf.tobytes() == full.data.tobytes()

    @pytest.mark.parametrize(
        "rows, error",
        [
            (np.array([0, 256]), ShapeError),  # out of range
            (np.array([-1]), ShapeError),
            (np.array([[0, 1]]), ShapeError),  # not one-dimensional
            (np.array([0.0, 1.0]), TypeError),  # not integer
            (np.ones(256, dtype=bool), TypeError),  # a mask is not a row list
        ],
    )
    def test_bad_rows_rejected(self, poisson16, rows, error):
        with pytest.raises(error, match="rows"):
            compute_g_values(poisson16, fsai_pattern(poisson16), rows=rows)

    @pytest.mark.parametrize(
        "make_out, error",
        [
            (lambda nnz: np.empty(nnz + 1), ShapeError),
            (lambda nnz: np.empty((nnz, 1)), ShapeError),
            (lambda nnz: np.empty(nnz, dtype=np.float32), TypeError),
            (lambda nnz: [0.0] * nnz, TypeError),
        ],
    )
    def test_bad_out_rejected(self, poisson16, make_out, error):
        pattern = fsai_pattern(poisson16)
        with pytest.raises(error, match="out"):
            compute_g_values(poisson16, pattern, out=make_out(pattern.nnz))


def force_gather_arm(monkeypatch, arm: str) -> None:
    """Pin the Gram-gather rule: every batch through one arm, or (``halve``)
    64-entry cap, so batches are halved down to single rows and only blocks
    of at most 8 columns are read from a table."""
    from repro.core import fsai

    ratio, entries = {
        "search": (0, fsai._TABLE_ENTRIES),
        "table": (1 << 40, 1 << 62),
        "halve": (1 << 40, 64),
    }[arm]
    monkeypatch.setattr(fsai, "_TABLE_RATIO", ratio)
    monkeypatch.setattr(fsai, "_TABLE_ENTRIES", entries)


def gathered(mat, pattern, **kwargs):
    """``compute_g_values`` plus the rows each gather arm served."""
    from repro.instrument import NULL_TRACER, tracing

    with tracing(NULL_TRACER) as (_, metrics):
        g = compute_g_values(mat, pattern, **kwargs)
        return (
            g,
            metrics.value("fsai.gather.table_rows"),
            metrics.value("fsai.gather.search_rows"),
        )


def small_spd_like(rng, n: int) -> CSRMatrix:
    """Sparse SPD test matrix with irregular row pattern sizes."""
    base = random_sparse(rng, n, n, density=0.25).to_dense()
    sym = (base + base.T) / 2
    np.fill_diagonal(sym, np.abs(sym).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(sym)
