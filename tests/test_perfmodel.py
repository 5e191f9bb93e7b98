"""Unit tests for machine specs and the time model."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from spmd_engine import run_spmd

from repro.core import PrecondOptions, FilterSpec, build_fsai, build_fsaie_comm
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.dist.spmd import spmd_cg, spmd_pipelined_pcg
from repro.instrument import tracing
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import ClockModel, payload_nbytes
from repro.observe import Timeline
from repro.sparse import CSRMatrix
from repro.perfmodel import (
    A64FX,
    MACHINES,
    SKYLAKE,
    ZEN2,
    CostModel,
    estimate_solver_time,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from suites import RATIO_BAND  # noqa: E402


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
        assert cost.misses > 0
        assert cost.total == pytest.approx(
            cost.spmv_a + cost.precond + cost.misses + cost.halo
            + cost.reductions + cost.vector_ops
        )
        assert cost.total == pytest.approx(cost.rank_seconds.max())

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


# ----------------------------------------------------------------------
# One machine model: the oracle, the bugfix, and agreement with the engine

ALPHA = SKYLAKE.net_latency
BETA = 1.0 / SKYLAKE.net_bandwidth


def _roofline(flops, nbytes):
    """Skylake's per-core roofline, written out: seconds of one kernel."""
    return max(flops / SKYLAKE.core_flops, nbytes / SKYLAKE.core_mem_bw)


def _three_rank_case():
    """A 14-row SPD graph Laplacian (4 on the diagonal, -1 per edge) on
    three ranks.  Rank 0 owns a chain of 8 rows and touches rank 1 once:
    the most compute, the least halo.  Ranks 1 and 2 own 3 rows each, tied
    row for row (8-11, 9-12, 10-13): rank 1 packs 4 values (1 to rank 0, 3
    to rank 2) and receives 1 + 3, so it has the most halo."""
    edges = [(i, i + 1) for i in range(7)] + [(7, 8), (8, 9), (9, 10),
                                              (11, 12), (12, 13),
                                              (8, 11), (9, 12), (10, 13)]
    rows = list(range(14)) + [i for i, j in edges] + [j for i, j in edges]
    cols = list(range(14)) + [j for i, j in edges] + [i for i, j in edges]
    vals = [4.0] * 14 + [-1.0] * (2 * len(edges))
    mat = CSRMatrix.from_coo((14, 14), np.array(rows), np.array(cols), np.array(vals))
    part = RowPartition(np.array([0] * 8 + [1] * 3 + [2] * 3), 3)
    return DistMatrix.from_global(mat, part)


class TestOracle:
    """CostModel against closed-form α–β–roofline arithmetic on a
    hand-built case: each rank's phases are summed, then the slowest rank
    sets the iteration (adding each phase's maximum over ranks instead
    would mix rank 0's compute with rank 1's halo)."""

    # per rank: rows, stored entries, halo values packed, largest message
    ROWS = (8, 3, 3)
    NNZ = (8 + 14 + 1, 3 + 4 + 1 + 3, 3 + 4 + 3)
    PACKED = (1, 4, 3)
    LARGEST = (1, 3, 3)

    @pytest.mark.parametrize("reduction_phases, updates, dots, allreduces, values", [
        (3, 3, 3, 3, 1),   # PCG: three scalar allreduces
        (1, 8, 3, 1, 3),   # pipelined PCG: one fused length-3 allreduce
    ])
    def test_per_rank_phases_and_total(self, reduction_phases, updates, dots,
                                       allreduces, values):
        da = _three_rank_case()
        machine = dataclasses.replace(SKYLAKE, miss_penalty=0.0)
        cost = CostModel(machine, simulate_cache=False).iteration_cost(
            da, None, reduction_phases=reduction_phases
        )
        assert [lm.csr.nnz for lm in da.locals] == list(self.NNZ)
        spmv = [_roofline(2 * z, 12 * z + 16 * n) for z, n in zip(self.NNZ, self.ROWS)]
        halo = [_roofline(0, 16 * k) + ALPHA + BETA * 8 * m
                for k, m in zip(self.PACKED, self.LARGEST)]
        vectors = [_roofline(2 * n * (updates + dots), 8 * n * (3 * updates + 2 * dots))
                   for n in self.ROWS]
        # recursive doubling on 3 ranks: fold, one doubling round, unfold
        reductions = allreduces * 3 * (ALPHA + BETA * 8 * values)
        expected = {
            "spmv_a": spmv, "precond": [0.0] * 3, "misses": [0.0] * 3,
            "halo": halo, "reductions": [reductions] * 3, "vector_ops": vectors,
        }
        for name, seconds in expected.items():
            assert cost.per_rank[name] == pytest.approx(seconds, rel=1e-12), name
        per_rank = [sum(v[p] for v in expected.values()) for p in range(3)]
        assert np.argmax(spmv) == 0 and np.argmax(halo) == 1
        assert cost.rank_seconds == pytest.approx(per_rank, rel=1e-12)
        assert cost.total == pytest.approx(max(per_rank), rel=1e-12)
        # the named components are rank 0's, the critical rank
        assert cost.halo == pytest.approx(halo[0], rel=1e-12)
        assert cost.total < max(spmv) + max(halo) + reductions + max(vectors)
        assert cost.waits == pytest.approx([max(per_rank) - t for t in per_rank])

    def test_rejects_an_unknown_method(self):
        with pytest.raises(ValueError, match="reduction_phases"):
            CostModel(SKYLAKE).iteration_cost(_three_rank_case(), None,
                                              reduction_phases=2)


def test_gflops_without_the_cache_simulator(setup, monkeypatch):
    """``simulate_cache=False`` skips the simulator for GFLOP/s too, and the
    GFLOP/s are the preconditioner's flops over the seconds the iteration
    charges it: its two products plus its misses × latency."""
    import repro.perfmodel.model as model_module

    def no_simulator(*args, **kwargs):
        raise AssertionError("the cache simulator ran with simulate_cache=False")

    monkeypatch.setattr(model_module, "precond_x_misses_per_rank", no_simulator)
    _, _, da, fsai, _ = setup
    model = CostModel(SKYLAKE, simulate_cache=False)
    gflops = model.precond_gflops_per_rank(fsai)
    cost = model.iteration_cost(da, fsai)
    misses = model.spmv_misses_per_rank(fsai.g) + model.spmv_misses_per_rank(fsai.gt)
    seconds = cost.per_rank["precond"] + misses * SKYLAKE.miss_penalty
    flops = 2 * (fsai.g.nnz_per_rank() + fsai.gt.nnz_per_rank())
    assert gflops * 1e9 * seconds == pytest.approx(flops, rel=1e-12)


def test_engine_message_arrival_is_message_seconds():
    """The engine inlines α + β·bytes on its hot path; it is the clock
    model's ``message_seconds``, for a lone message and for each round of
    the allreduce."""
    clock = ClockModel(alpha=1e-6, beta=1e-9)
    single = np.zeros(5)

    async def prog(comm):
        if comm.rank == 0:
            comm.advance(3e-6)
            comm.send(single, 1, tag=1)
        else:
            await comm.recv(0, 1)
        arrived = comm.now()
        await comm.allreduce(np.zeros(3))
        return arrived, comm.now()

    (_, reduced0), (arrived, reduced1) = run_spmd(prog, 2, clock=clock)
    assert arrived == pytest.approx(3e-6 + clock.message_seconds(payload_nbytes(single)))
    # one round: rank 0 waits for rank 1's partial; rank 1's has landed
    assert reduced0 == pytest.approx(arrived + clock.message_seconds(24))
    assert reduced1 == arrived


def _per_iteration(solve, da, b, pre, **kwargs):
    """Skylake-modeled seconds of one iteration of an SPMD solve: makespan,
    then per-rank (compute, halo, reduction) as an array of shape (ranks, 3).

    Ten steady-state iterations: the traced timelines of a 20- and a
    10-iteration run, differenced.  Halo is halo wait plus pack."""
    runs = []
    for iterations in (10, 20):
        with tracing() as (tracer, _):
            solve(da, b, rtol=1e-30, max_iterations=iterations,
                  precond_pair=(pre.g, pre.gt), clock=SKYLAKE.clock_model(),
                  **kwargs)
        timeline = Timeline.from_tracer(tracer)
        phases = []
        for rank in timeline.ranks:
            kinds = timeline.kind_seconds(rank)
            phases.append([kinds.get("compute", 0.0),
                           kinds.get("wait", 0.0) + kinds.get("pack", 0.0),
                           kinds.get("reduction", 0.0)])
        runs.append((timeline.makespan, np.array(phases)))
    return (runs[1][0] - runs[0][0]) / 10, (runs[1][1] - runs[0][1]) / 10


def _poisson32(part_of):
    mat = poisson2d(32)
    part = part_of(mat)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=0), part)
    return da, b, build_fsai(mat, part)


def _balanced(mat):
    return RowPartition.from_matrix(mat, 4, seed=0)


def _strips(mat):
    """Strips of 6, 8, 8 and 10 grid lines: rank 3 computes the most, the
    interior ranks 1 and 2 exchange the most."""
    return RowPartition(np.digitize(np.arange(mat.nrows) // 32, [6, 14, 22]), 4)


def _one_rank(mat):
    return RowPartition(np.zeros(mat.nrows, dtype=int), 1)


SOLVES = [(spmd_cg, {}, 3), (spmd_pipelined_pcg, {"overlap": False}, 1)]


class TestEngineAgreement:
    """Blocking SPMD solves on the Skylake clock against CostModel without
    its miss term (the one price the engine does not charge).  poisson2d(32)
    with FSAI, µs per iteration, engine / model:

    * balanced (4 × 256 rows) ``spmd_cg``: total 20.00 / 19.97; compute
      5.99 / 6.34 (one dot product per iteration runs outside the traced
      iteration span), halo 4.66 / 4.63, reduction 9.00 / 9.00;
    * balanced ``spmd_pipelined_pcg``: total 16.56 / 16.53; compute 8.90 /
      8.90, halo 4.66 / 4.63, reduction 3.00 / 3.00;
    * strips (192 / 256 / 256 / 320 rows): total 20.38 / 20.03 (CG) and
      17.47 / 17.23 (pipelined).  Each rank's compute is its own charged
      kernels: 0.946 of the model's for that rank under CG (the untraced
      dot product), 1.000 under pipelined PCG.  Halo and
      reduction are exempt here: the faster ranks absorb the slowest rank's
      lead as waits in whichever exchange or allreduce comes next, which a
      sum-then-max model charges to no phase (DESIGN.md §2).
    """

    @pytest.mark.parametrize("solve, kwargs, reduction_phases", SOLVES)
    def test_balanced_phases_and_total(self, solve, kwargs, reduction_phases):
        lo, hi = RATIO_BAND
        da, b, pre = _poisson32(_balanced)
        makespan, phases = _per_iteration(solve, da, b, pre, **kwargs)
        cost = CostModel(SKYLAKE).iteration_cost(da, pre,
                                                 reduction_phases=reduction_phases)
        predicted = np.array([cost.spmv_a + cost.precond + cost.vector_ops,
                              cost.halo, cost.reductions])
        assert makespan == pytest.approx(cost.total - cost.misses, rel=0.1)
        for name, ratio in zip(("compute", "halo", "reduction"),
                               phases.mean(axis=0) / predicted):
            assert lo <= ratio <= hi, (name, ratio)

    @pytest.mark.parametrize("solve, kwargs, reduction_phases", SOLVES)
    def test_imbalanced_compute_per_rank_and_total(self, solve, kwargs,
                                                   reduction_phases):
        lo, hi = RATIO_BAND
        da, b, pre = _poisson32(_strips)
        makespan, phases = _per_iteration(solve, da, b, pre, **kwargs)
        cost = CostModel(SKYLAKE).iteration_cost(da, pre,
                                                 reduction_phases=reduction_phases)
        compute = (cost.per_rank["spmv_a"] + cost.per_rank["precond"]
                   + cost.per_rank["vector_ops"])
        assert np.all((lo <= phases[:, 0] / compute) & (phases[:, 0] / compute <= hi))
        assert makespan == pytest.approx(cost.total - cost.misses, rel=0.1)

    @pytest.mark.parametrize("solve, kwargs, reduction_phases", SOLVES)
    def test_one_rank_charges_exactly_the_model(self, solve, kwargs,
                                                reduction_phases):
        """On one rank nothing waits: an iteration's modeled seconds are the
        rank program's charged kernels, and they are the model's
        (``CG_ITERATION`` / ``PIPELINED_ITERATION`` count what the programs
        run)."""
        da, b, pre = _poisson32(_one_rank)
        makespan, _ = _per_iteration(solve, da, b, pre, **kwargs)
        cost = CostModel(SKYLAKE).iteration_cost(da, pre,
                                                 reduction_phases=reduction_phases)
        assert makespan == pytest.approx(cost.total - cost.misses, rel=1e-9)
