"""Unit tests for the full preconditioner pipelines (FSAI/FSAIE/FSAIE-Comm)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FilterSpec,
    PrecondOptions,
    build_fsai,
    build_fsaie,
    build_fsaie_comm,
    check_comm_invariance,
    fsai_pattern,
    pcg,
)
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import CommTracker


@pytest.fixture(scope="module")
def setup():
    mat = poisson2d(24)
    part = RowPartition.from_matrix(mat, 4, seed=0)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=42), part)
    return mat, part, da, b


OPTS = PrecondOptions(line_bytes=64, filter=FilterSpec(0.01, dynamic=True))


class TestBuilders:
    def test_fsai_baseline_matches_pattern(self, setup):
        mat, part, _, _ = setup
        pre = build_fsai(mat, part)
        assert pre.name == "FSAI"
        assert pre.nnz == fsai_pattern(mat).nnz
        assert pre.nnz_increase_percent == 0.0

    def test_transpose_pair_consistency(self, setup):
        mat, part, _, _ = setup
        for build in (build_fsai, build_fsaie, build_fsaie_comm):
            pre = build(mat, part, OPTS)
            g = pre.g.to_global()
            gt = pre.gt.to_global()
            assert gt.allclose(g.transpose())

    def test_extended_patterns_grow(self, setup):
        mat, part, _, _ = setup
        fsai = build_fsai(mat, part, OPTS)
        fsaie = build_fsaie(mat, part, OPTS)
        comm = build_fsaie_comm(mat, part, OPTS)
        assert fsaie.nnz > fsai.nnz
        assert comm.nnz >= fsaie.nnz
        assert comm.nnz_increase_percent >= fsaie.nnz_increase_percent > 0

    def test_unfiltered_extension_recorded(self, setup):
        mat, part, _, _ = setup
        pre = build_fsaie_comm(mat, part, OPTS)
        assert pre.ext_nnz_unfiltered >= pre.nnz - pre.base_nnz
        assert pre.extension.n_added == pre.ext_nnz_unfiltered

    def test_stronger_filter_smaller_pattern(self, setup):
        mat, part, _, _ = setup
        sizes = []
        for f in (0.0, 0.05, 0.5):
            opts = PrecondOptions(filter=FilterSpec(f, dynamic=False))
            sizes.append(build_fsaie_comm(mat, part, opts).nnz)
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_base_entries_never_filtered(self, setup):
        mat, part, _, _ = setup
        opts = PrecondOptions(filter=FilterSpec(1e9, dynamic=False))  # drop all ext
        pre = build_fsaie_comm(mat, part, opts)
        assert pre.nnz == pre.base_nnz

    def test_apply_is_gtg(self, setup, rng):
        mat, part, _, _ = setup
        pre = build_fsaie_comm(mat, part, OPTS)
        r = rng.standard_normal(mat.nrows)
        dr = DistVector.from_global(r, part)
        z = pre.apply(dr).to_global()
        g = pre.g.to_global().to_dense()
        assert np.allclose(z, g.T @ (g @ r))

    def test_flops_per_apply(self, setup):
        mat, part, _, _ = setup
        pre = build_fsai(mat, part)
        assert pre.flops_per_apply() == 2 * (pre.g.nnz + pre.gt.nnz)


class TestCommInvariance:
    """The central claim: extensions leave the communication scheme unchanged."""

    def test_fsaie_and_comm_are_invariant(self, setup):
        mat, part, _, _ = setup
        base = build_fsai(mat, part, OPTS)
        for build in (build_fsaie, build_fsaie_comm):
            ext = build(mat, part, OPTS)
            assert check_comm_invariance(base, ext)

    def test_invariance_across_line_sizes(self, setup):
        mat, part, _, _ = setup
        base = build_fsai(mat, part)
        for line_bytes in (64, 128, 256):
            opts = PrecondOptions(line_bytes=line_bytes, filter=FilterSpec(0.0, dynamic=False))
            ext = build_fsaie_comm(mat, part, opts)
            assert check_comm_invariance(base, ext)

    def test_measured_traffic_identical(self, setup, rng):
        """Beyond schedule equality: the actual bytes on the wire match."""
        mat, part, da, _ = setup
        base = build_fsai(mat, part, OPTS)
        ext = build_fsaie_comm(mat, part, OPTS)
        r = DistVector.from_global(rng.standard_normal(mat.nrows), part)
        t_base, t_ext = CommTracker(), CommTracker()
        base.apply(r, t_base)
        ext.apply(r, t_ext)
        assert t_base.snapshot()["p2p_bytes"] == t_ext.snapshot()["p2p_bytes"]

    def test_level2_fsai_does_change_traffic(self, setup):
        """Contrast case: growing the pattern numerically (level 2) without
        comm awareness increases communication."""
        from repro.core import FSAIOptions

        mat, part, _, _ = setup
        base = build_fsai(mat, part)
        level2 = build_fsai(mat, part, PrecondOptions(fsai=FSAIOptions(level=2)))
        assert not check_comm_invariance(base, level2)


class TestSolverQuality:
    def test_paper_ordering_of_iterations(self, setup):
        """FSAIE-Comm ≤ FSAIE ≤ FSAI iterations on the paper's protocol
        (allowing a small tolerance for the middle comparison)."""
        mat, part, da, b = setup
        iters = {}
        for build in (build_fsai, build_fsaie, build_fsaie_comm):
            pre = build(mat, part, OPTS)
            res = pcg(da, b, precond=pre.apply)
            assert res.converged
            iters[pre.name] = res.iterations
        assert iters["FSAIE"] < iters["FSAI"]
        assert iters["FSAIE-Comm"] <= iters["FSAIE"] * 1.05

    def test_all_preconditioners_reach_same_solution(self, setup):
        mat, part, da, b = setup
        solutions = []
        for build in (build_fsai, build_fsaie, build_fsaie_comm):
            pre = build(mat, part, OPTS)
            solutions.append(pcg(da, b, precond=pre.apply, rtol=1e-10).x.to_global())
        for s in solutions[1:]:
            assert np.allclose(s, solutions[0], atol=1e-6)
