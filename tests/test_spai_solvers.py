"""Unit tests for the SPAI baseline and the extra Krylov solvers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import cg
from repro.core.spai import spai, spai_values
from repro.core.solvers import bicgstab, steepest_descent
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.errors import ShapeError
from repro.matgen import paper_rhs, poisson2d
from repro.sparse import CSRMatrix, SparsityPattern

from conftest import random_sparse


@pytest.fixture(scope="module")
def system():
    mat = poisson2d(14)
    part = RowPartition.from_matrix(mat, 3, seed=0)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, 4), part)
    return mat, part, da, b


class TestSPAI:
    def test_full_pattern_gives_exact_inverse(self, small_spd):
        n = small_spd.nrows
        full = SparsityPattern.from_rows((n, n), [list(range(n))] * n)
        m = spai_values(small_spd, full)
        assert np.allclose(m.to_dense() @ small_spd.to_dense(), np.eye(n), atol=1e-7)

    def test_reduces_frobenius_residual(self, system):
        mat, *_ = system
        n = mat.nrows
        m = spai(mat, level=1)
        am = (mat @ m).to_dense()
        eye = np.eye(n)
        # better than trivially scaled identity
        diag_scale = CSRMatrix.from_dense(np.diag(1.0 / mat.diagonal()))
        trivial = (mat @ diag_scale).to_dense()
        assert np.linalg.norm(am - eye) < np.linalg.norm(trivial - eye)

    def test_level2_better_than_level1(self, system):
        mat, *_ = system
        eye = np.eye(mat.nrows)
        r1 = np.linalg.norm((mat @ spai(mat, level=1)).to_dense() - eye)
        r2 = np.linalg.norm((mat @ spai(mat, level=2)).to_dense() - eye)
        assert r2 < r1

    def test_diagonal_matrix_exact(self):
        mat = CSRMatrix.from_dense(np.diag([2.0, 4.0, 8.0]))
        m = spai(mat, level=1)
        assert np.allclose(m.to_dense(), np.diag([0.5, 0.25, 0.125]))

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ShapeError):
            spai_values(
                random_sparse(rng, 3, 5), SparsityPattern.empty((3, 5))
            )

    def test_pattern_shape_mismatch(self, small_spd):
        with pytest.raises(ShapeError):
            spai_values(small_spd, SparsityPattern.identity(small_spd.nrows + 1))


class TestBiCGSTAB:
    def test_solves_spd_system(self, system):
        mat, _, da, b = system
        res = bicgstab(da, b, rtol=1e-9)
        assert res.converged
        x = res.x.to_global()
        bg = b.to_global()
        assert np.linalg.norm(mat.spmv(x) - bg) <= 2e-9 * np.linalg.norm(bg)

    def test_spai_preconditioning_reduces_iterations(self, system):
        mat, part, da, b = system
        m = DistMatrix.from_global(spai(mat, level=1), part)

        def pre(v, tracker=None):
            return m.spmv(v, tracker)

        plain = bicgstab(da, b)
        pred = bicgstab(da, b, precond=pre)
        assert pred.converged
        assert pred.iterations < plain.iterations

    def test_zero_rhs(self, system):
        _, part, da, _ = system
        res = bicgstab(da, DistVector.zeros(part))
        assert res.converged and res.iterations == 0

    def test_iteration_cap_and_raise(self, system):
        from repro.errors import ConvergenceError

        _, _, da, b = system
        res = bicgstab(da, b, rtol=1e-15, max_iterations=1)
        assert not res.converged
        with pytest.raises(ConvergenceError):
            bicgstab(da, b, rtol=1e-15, max_iterations=1, raise_on_fail=True)

    def test_allreduce_count_is_exact(self, dist_poisson16):
        """One allreduce for ``‖b‖``, six per full iteration, three for the
        early-exit half iteration — ``‖s‖`` is reduced once, not twice."""
        from repro.core import build_fsai
        from repro.mpisim import CommTracker

        mat, part, da, b = dist_poisson16
        tracker = CommTracker()
        res = bicgstab(da, b, precond=build_fsai(mat, part), tracker=tracker)
        assert res.converged and res.iterations == 20
        assert tracker.collective_calls["allreduce"] == 1 + 6 * 19 + 3 == 118

    def test_handles_nonsymmetric_system(self, rng):
        # a diagonally dominant nonsymmetric matrix — CG would be invalid
        n = 30
        dense = np.eye(n) * 10 + rng.standard_normal((n, n)) * 0.3
        mat = CSRMatrix.from_dense(dense)
        part = RowPartition.contiguous(n, 2)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(rng.standard_normal(n), part)
        res = bicgstab(da, b, rtol=1e-10)
        assert res.converged
        assert np.allclose(
            mat.spmv(res.x.to_global()), b.to_global(), atol=1e-7
        )


class TestSteepestDescent:
    def test_converges_slowly(self, system):
        mat, _, da, b = system
        sd = steepest_descent(da, b, rtol=1e-6, max_iterations=100_000)
        fast = cg(da, b, rtol=1e-6)
        assert sd.converged
        assert fast.iterations < sd.iterations / 3

    def test_breakdown_on_indefinite(self):
        dense = np.array([[1.0, 4.0], [4.0, 1.0]])
        mat = CSRMatrix.from_dense(dense)
        part = RowPartition.contiguous(2, 1)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(np.array([1.0, -1.0]), part)
        res = steepest_descent(da, b, max_iterations=100)
        assert not res.converged


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
