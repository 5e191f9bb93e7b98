"""Unit tests for machine specs and the time model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PrecondOptions, FilterSpec, build_fsai, build_fsaie_comm
from repro.dist import DistMatrix, RowPartition
from repro.matgen import poisson2d
from repro.perfmodel import (
    A64FX,
    MACHINES,
    SKYLAKE,
    ZEN2,
    CostModel,
    estimate_solver_time,
)


@pytest.fixture(scope="module")
def setup():
    mat = poisson2d(20)
    part = RowPartition.from_matrix(mat, 4, seed=0)
    da = DistMatrix.from_global(mat, part)
    fsai = build_fsai(mat, part)
    comm = build_fsaie_comm(
        mat, part, PrecondOptions(filter=FilterSpec(0.0, dynamic=False))
    )
    return mat, part, da, fsai, comm


class TestMachines:
    def test_registry(self):
        assert set(MACHINES) == {"skylake", "a64fx", "zen2"}

    def test_paper_cache_lines(self):
        assert SKYLAKE.cache_line_bytes == 64
        assert A64FX.cache_line_bytes == 256
        assert ZEN2.cache_line_bytes == 64

    def test_cores_per_node(self):
        assert SKYLAKE.cores_per_node == 48
        assert ZEN2.cores_per_node == 128


class TestCostModel:
    def test_iteration_cost_positive_components(self, setup):
        _, _, da, fsai, _ = setup
        cost = CostModel(SKYLAKE).iteration_cost(da, fsai)
        assert cost.spmv_a > 0
        assert cost.precond > 0
        assert cost.halo > 0
        assert cost.reductions > 0
        assert cost.vector_ops > 0
        assert cost.total == pytest.approx(
            cost.spmv_a + cost.precond + cost.halo + cost.reductions + cost.vector_ops
        )

    def test_no_precond_costs_less(self, setup):
        _, _, da, fsai, _ = setup
        model = CostModel(SKYLAKE)
        assert model.iteration_cost(da, None).total < model.iteration_cost(da, fsai).total

    def test_more_threads_faster_iteration(self, setup):
        _, _, da, fsai, _ = setup
        t1 = CostModel(SKYLAKE, threads_per_process=1).iteration_cost(da, fsai).total
        t8 = CostModel(SKYLAKE, threads_per_process=8).iteration_cost(da, fsai).total
        assert t8 < t1

    def test_extension_costs_little_per_iteration(self, setup):
        """The paper's efficiency claim: FSAIE-Comm's extra entries cost far
        less per iteration than their nnz share, thanks to cache reuse."""
        _, _, da, fsai, comm = setup
        model = CostModel(SKYLAKE)
        base = model.iteration_cost(da, fsai).total
        ext = model.iteration_cost(da, comm).total
        nnz_growth = comm.nnz / fsai.nnz  # >1.5 for unfiltered Poisson
        time_growth = ext / base
        assert time_growth < nnz_growth
        assert time_growth < 1.35

    def test_estimate_solver_time_scales_with_iterations(self, setup):
        _, _, da, fsai, _ = setup
        t100 = estimate_solver_time(100, da, fsai, SKYLAKE)
        t200 = estimate_solver_time(200, da, fsai, SKYLAKE)
        assert t200 == pytest.approx(2 * t100)

    def test_fast_path_without_cache_simulation(self, setup):
        _, _, da, fsai, _ = setup
        fast = CostModel(SKYLAKE, simulate_cache=False).iteration_cost(da, fsai)
        assert fast.total > 0

    def test_precond_gflops_positive_and_bounded(self, setup):
        _, _, _, fsai, _ = setup
        gflops = CostModel(SKYLAKE).precond_gflops_per_rank(fsai)
        assert np.all(gflops > 0)
        assert np.all(gflops <= SKYLAKE.core_flops / 1e9)

    def test_comm_extension_does_not_hurt_gflops(self, setup):
        """Figure 3b's shape: FSAIE-Comm GFLOP/s ≥ FSAI GFLOP/s (roughly)."""
        _, _, _, fsai, comm = setup
        model = CostModel(SKYLAKE)
        base = model.precond_gflops_per_rank(fsai).mean()
        ext = model.precond_gflops_per_rank(comm).mean()
        assert ext >= 0.9 * base

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            CostModel(SKYLAKE, threads_per_process=0)
