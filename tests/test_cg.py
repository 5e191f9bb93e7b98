"""Unit tests for the distributed PCG solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_fsai, cg, pcg
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.errors import ConvergenceError
from repro.matgen import PAPER_RTOL, paper_rhs, poisson2d
from repro.mpisim import CommTracker
from repro.sparse import CSRMatrix


@pytest.fixture(scope="module")
def system():
    mat = poisson2d(14)
    part = RowPartition.from_matrix(mat, 3, seed=0)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, 4), part)
    return mat, part, da, b


def residual(mat, x, b):
    return np.linalg.norm(mat.spmv(x) - b)


class TestPlainCG:
    def test_solves_poisson(self, dist_poisson16):
        mat, _, da, b = dist_poisson16
        result = cg(da, b, rtol=1e-10)
        assert result.converged
        bg = b.to_global()
        assert residual(mat, result.x.to_global(), bg) <= 1.2e-10 * np.linalg.norm(bg)

    def test_identity_converges_in_one_iteration(self, rng):
        n = 16
        mat = CSRMatrix.identity(n)
        part = RowPartition.contiguous(n, 2)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(rng.standard_normal(n), part)
        result = cg(da, b)
        assert result.iterations == 1
        assert np.allclose(result.x.to_global(), b.to_global())

    def test_zero_rhs_returns_zero(self, dist_poisson16):
        _, part, da, _ = dist_poisson16
        result = cg(da, DistVector.zeros(part))
        assert result.iterations == 0
        assert result.converged
        assert np.allclose(result.x.to_global(), 0.0)

    def test_iteration_limit(self, dist_poisson16):
        _, _, da, b = dist_poisson16
        result = cg(da, b, rtol=1e-14, max_iterations=2)
        assert not result.converged
        assert result.iterations == 2

    def test_raise_on_fail(self, dist_poisson16):
        _, _, da, b = dist_poisson16
        with pytest.raises(ConvergenceError) as exc:
            cg(da, b, rtol=1e-14, max_iterations=2, raise_on_fail=True)
        assert exc.value.iterations == 2
        assert exc.value.residual_norm > 0

    def test_residual_history_monotone_overall(self, dist_poisson16):
        _, _, da, b = dist_poisson16
        result = cg(da, b)
        hist = np.array(result.residual_norms)
        assert hist.size == result.iterations + 1
        assert hist[-1] < hist[0] * 1e-7

    def test_breakdown_on_indefinite(self):
        dense = np.array([[1.0, 4.0], [4.0, 1.0]])
        mat = CSRMatrix.from_dense(dense)
        part = RowPartition.contiguous(2, 1)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(np.array([1.0, -1.0]), part)
        result = cg(da, b, max_iterations=50)
        assert not result.converged  # dᵀAd < 0 triggers the breakdown guard


class TestPreconditionedCG:
    def test_fsai_reduces_iterations(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        plain = cg(da, b)
        pre = build_fsai(mat, part)
        precond = pcg(da, b, precond=pre.apply)
        assert precond.converged
        assert precond.iterations < plain.iterations

    def test_jacobi_preconditioner_converges(self, dist_poisson16):
        """A bare callable ``z = M(r, tracker)`` works as ``precond=``."""
        mat, part, da, b = dist_poisson16
        inv_diag = DistVector.from_global(1.0 / mat.diagonal(), part)

        def jacobi(r, tracker=None):
            return DistVector(part, [d * x for d, x in zip(inv_diag.parts, r.parts)])

        result = pcg(da, b, precond=jacobi)
        assert result.converged
        bg = b.to_global()
        assert residual(mat, result.x.to_global(), bg) <= 1.1e-8 * np.linalg.norm(bg)

    def test_solution_matches_direct_solve(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        pre = build_fsai(mat, part)
        result = pcg(da, b, precond=pre.apply, rtol=1e-12)
        direct = np.linalg.solve(mat.to_dense(), b.to_global())
        assert np.allclose(result.x.to_global(), direct, atol=1e-6)

    def test_paper_protocol_end_to_end(self):
        mat = poisson2d(24)
        part = RowPartition.from_matrix(mat, 4, seed=0)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, seed=11), part)
        pre = build_fsai(mat, part)
        result = pcg(da, b, precond=pre.apply, rtol=PAPER_RTOL)
        assert result.converged
        assert result.residual_norms[-1] <= PAPER_RTOL * result.residual_norms[0]

    def test_tracker_records_traffic(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        pre = build_fsai(mat, part)
        tracker = CommTracker()
        result = pcg(da, b, precond=pre.apply, tracker=tracker)
        assert tracker.total_messages > 0
        assert tracker.collective_calls["allreduce"] >= 3 * result.iterations

    def test_spmd_and_bsp_iteration_counts_agree(self, dist_poisson16):
        from repro.dist import spmd_cg

        mat, part, da, b = dist_poisson16
        pre = build_fsai(mat, part)
        bsp = pcg(da, b, precond=pre.apply, rtol=1e-8)
        spmd_x, spmd_iters = spmd_cg(
            da, b, rtol=1e-8, precond_pair=(pre.g, pre.gt)
        )
        assert spmd_iters == bsp.iterations
        assert np.allclose(spmd_x.to_global(), bsp.x.to_global(), atol=1e-10)


class TestPipelinedCG:
    def test_matches_standard_pcg(self, system):
        from repro.core import build_fsai, pcg, pipelined_pcg

        mat, part, da, b = system
        pre = build_fsai(mat, part)
        std = pcg(da, b, precond=pre.apply, rtol=1e-10)
        pipe = pipelined_pcg(da, b, precond=pre.apply, rtol=1e-10)
        assert pipe.converged
        # identical recurrence in exact arithmetic: same iteration count
        # within rounding-induced slack of one step
        assert abs(pipe.iterations - std.iterations) <= 1
        assert np.allclose(pipe.x.to_global(), std.x.to_global(), atol=1e-8)

    def test_unpreconditioned(self, system):
        from repro.core import cg, pipelined_pcg

        mat, _, da, b = system
        std = cg(da, b, rtol=1e-9)
        pipe = pipelined_pcg(da, b, rtol=1e-9)
        assert pipe.converged
        assert abs(pipe.iterations - std.iterations) <= 1

    def test_fewer_reduction_phases(self, system):
        """The point of pipelining: fewer allreduce calls per iteration."""
        from repro.core import build_fsai, pcg, pipelined_pcg
        from repro.mpisim import CommTracker

        mat, part, da, b = system
        pre = build_fsai(mat, part)
        t_std, t_pipe = CommTracker(), CommTracker()
        std = pcg(da, b, precond=pre.apply, tracker=t_std)
        pipe = pipelined_pcg(da, b, precond=pre.apply, tracker=t_pipe)
        per_iter_std = t_std.collective_calls["allreduce"] / max(std.iterations, 1)
        per_iter_pipe = t_pipe.collective_calls["allreduce"] / max(pipe.iterations, 1)
        assert per_iter_pipe <= per_iter_std

    def test_allreduce_bytes_per_scalar_match_pcg(self, system):
        """A fused allreduce of ``k`` scalars books ``k`` times what
        ``DistVector.dot`` books for one: ``8·P`` bytes per scalar."""
        from repro.core import build_fsai, pcg, pipelined_pcg
        from repro.mpisim import CommTracker

        mat, part, da, b = system
        pre = build_fsai(mat, part)
        t_std, t_pipe = CommTracker(), CommTracker()
        pcg(da, b, precond=pre, tracker=t_std)
        pipe = pipelined_pcg(da, b, precond=pre, tracker=t_pipe)
        # ‖b‖², then (γ, δ), then three scalars per iteration
        scalars = 1 + 2 + 3 * pipe.iterations
        per_scalar_std = (
            t_std.collective_bytes["allreduce"] / t_std.collective_calls["allreduce"]
        )
        per_scalar_pipe = t_pipe.collective_bytes["allreduce"] / scalars
        assert per_scalar_pipe == per_scalar_std == 8 * part.nparts

    def test_zero_rhs(self, system):
        from repro.core import pipelined_pcg
        from repro.dist import DistVector

        _, part, da, _ = system
        res = pipelined_pcg(da, DistVector.zeros(part))
        assert res.converged and res.iterations == 0

    def test_with_fsaie_comm(self, system):
        from repro.core import build_fsaie_comm, pipelined_pcg

        mat, part, da, b = system
        pre = build_fsaie_comm(mat, part)
        res = pipelined_pcg(da, b, precond=pre.apply)
        assert res.converged
        bg = b.to_global()
        assert (
            np.linalg.norm(mat.spmv(res.x.to_global()) - bg)
            <= 2e-8 * np.linalg.norm(bg)
        )
