"""The clocked executor against the engine it stands in for.

``spmd_cg`` / ``spmd_pipelined_pcg`` run their solver's text once over all
ranks (the clocked executor at the end of :mod:`repro.dist.spmd`) instead
of one coroutine per rank on the per-message engine
(:func:`spmd_engine.run_spmd`).  The oracle is the rank program on the
engine (:mod:`rank_programs`): the solution's bytes, the iterations, every
rank's final modeled clock and the tracker's snapshot must be equal —
under the all-zero clock and under the Skylake one, with and without a
preconditioner, on block and random owner maps, and where some or all
ranks have no halo edge.  The dispatch rule is pinned too: only a fault
plan puts ``spmd_cg`` on the faulted ledger, which sends one message at a
time; plain, traced and telemetered solves never reach it, and the
pipelined solve has no faulted run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rank_programs import engine_cg, engine_pipelined_pcg

import repro.dist.spmd as spmd
from repro.core import ExtensionMode, ExtensionWorkspace, FilterSpec, build_fsai
from repro.dist import DistMatrix, DistVector, RowPartition, spmd_cg, spmd_pipelined_pcg
from repro.dist.spmd import _clocked_cg as clocked_cg
from repro.dist.spmd import _clocked_pipelined_pcg as clocked_pipelined_pcg
from repro.errors import CommError
from repro.instrument import tracing
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import ClockModel, CommTracker
from repro.observe.stream import TelemetryConfig
from repro.partition import block_partition_2d
from repro.perfmodel import SKYLAKE
from repro.resilience import FaultPlan, fault_injection
from repro.sparse import CSRMatrix

CLOCKS = {"zero": ClockModel(), "skylake": SKYLAKE.clock_model()}

#: name -> (engine entry, clocked entry, extra positional arguments)
SOLVERS = {
    "cg": (engine_cg, clocked_cg, ()),
    "pipelined": (engine_pipelined_pcg, clocked_pipelined_pcg, (True,)),
    "pipelined_fused": (engine_pipelined_pcg, clocked_pipelined_pcg, (False,)),
}


def preconditioner(kind: str, mat: CSRMatrix, part: RowPartition):
    if kind == "none":
        return None
    if kind == "FSAI":
        fsai = build_fsai(mat, part)
        return fsai.g, fsai.gt
    pre = ExtensionWorkspace("FSAIE-Comm", mat, part, ExtensionMode.COMM).finalize(
        FilterSpec(0.01, dynamic=True)
    )
    return pre.g, pre.gt


def assert_clocked_is_the_engine(solver, mat, part, pair, clock, max_iterations=500,
                                 rhs=None):
    """Run both texts on one system and compare all four outcomes."""
    engine, clocked, extra = SOLVERS[solver]
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=3) if rhs is None else rhs, part)
    runs = []
    for run in (engine, clocked):
        tracker = CommTracker()
        x, iterations, clocks = run(da, b, 1e-8, max_iterations, pair, tracker, *extra, clock)
        runs.append((x.values.tobytes(), iterations,
                     np.asarray(clocks, dtype=np.float64).tobytes(), tracker.snapshot()))
    (x_e, its_e, clocks_e, snap_e), (x_c, its_c, clocks_c, snap_c) = runs
    assert its_c == its_e
    assert x_c == x_e
    assert clocks_c == clocks_e
    assert snap_c == snap_e
    return its_e, np.frombuffer(clocks_e)


@pytest.mark.parametrize("clock", CLOCKS, ids=str)
@pytest.mark.parametrize("kind", ["FSAI", "FSAIE-Comm", "none"])
@pytest.mark.parametrize("ranks", [1, 2, 15, 16])
@pytest.mark.parametrize("solver", SOLVERS)
def test_clocked_equals_the_engine(solver, ranks, kind, clock):
    n = 12
    mat = poisson2d(n)
    part = (RowPartition(block_partition_2d(n, n, 4, 4), 16) if ranks == 16
            else RowPartition.contiguous(n * n, ranks))
    iterations, clocks = assert_clocked_is_the_engine(
        solver, mat, part, preconditioner(kind, mat, part), CLOCKS[clock]
    )
    assert iterations > 0
    assert (clocks > 0).all() == (clock == "skylake")


@pytest.mark.parametrize("solver", SOLVERS)
def test_clocked_equals_the_engine_on_a_zero_rhs(solver):
    """``b = 0`` stops after the first reduction, with zero iterations."""
    n = 8
    mat = poisson2d(n)
    part = RowPartition(block_partition_2d(n, n, 2, 2), 4)
    iterations, clocks = assert_clocked_is_the_engine(
        solver, mat, part, preconditioner("FSAI", mat, part), CLOCKS["skylake"],
        rhs=np.zeros(n * n),
    )
    assert iterations == 0 and (clocks > 0).all()


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 9), st.integers(0, 2**31 - 1), st.sampled_from(list(SOLVERS)),
       st.sampled_from(["FSAI", "none"]))
def test_clocked_equals_the_engine_on_random_owner_maps(ranks, seed, solver, kind):
    n = 8
    owner = np.random.default_rng(seed).integers(0, ranks, n * n)
    owner[:ranks] = np.arange(ranks)  # every rank owns a row
    part = RowPartition(owner, ranks)
    mat = poisson2d(n)
    assert_clocked_is_the_engine(solver, mat, part, preconditioner(kind, mat, part),
                                 CLOCKS["skylake"])


def block_diagonal(blocks: int, n: int) -> CSRMatrix:
    """``blocks`` uncoupled copies of poisson2d(n)."""
    one = poisson2d(n)
    rows = np.repeat(np.arange(one.nrows), np.diff(one.indptr))
    size = one.nrows
    return CSRMatrix.from_coo(
        (blocks * size, blocks * size),
        np.concatenate([rows + k * size for k in range(blocks)]),
        np.concatenate([one.indices + k * size for k in range(blocks)]),
        np.tile(one.data, blocks),
    )


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize(
    "owner_of_block",
    [
        pytest.param((0, (1, 2), 3), id="two-ranks-without-halo"),
        pytest.param((0, 1, 2), id="no-halo-edge-at-all"),
    ],
)
def test_clocked_equals_the_engine_where_ranks_have_no_halo(solver, owner_of_block):
    """Each block of a block-diagonal matrix on one rank, or split between
    two: a rank that owns a whole block has no halo edge, so it has no
    segment in the exchange's max, no ``A_lh`` and no clock wait; with
    every block on one rank the edge list is empty."""
    n = 5
    mat = block_diagonal(len(owner_of_block), n)
    owner = np.concatenate([
        np.full(n * n, ranks) if isinstance(ranks, int)
        else np.repeat(ranks, [n * n // 2, n * n - n * n // 2])
        for ranks in owner_of_block
    ])
    part = RowPartition(owner)
    da = DistMatrix.from_global(mat, part)
    has_halo = [bool(da.schedule.recv_from[p]) for p in range(part.nparts)]
    assert not all(has_halo)
    _, clocks = assert_clocked_is_the_engine(
        solver, mat, part, preconditioner("FSAI", mat, part), CLOCKS["skylake"]
    )
    assert (clocks > 0).all()


# -- the dispatch rule ---------------------------------------------------
@pytest.fixture
def engine_runs(monkeypatch):
    """The rank counts of the runs that send their messages one at a time:
    a faulted ledger, where a solve ran on the engine before."""
    runs = []

    class Counted(spmd._FaultedLedger):
        def __init__(self, part, *args):
            runs.append(part.nparts)
            super().__init__(part, *args)

    monkeypatch.setattr(spmd, "_FaultedLedger", Counted)
    return runs


@pytest.fixture(scope="module")
def system():
    n = 12
    mat = poisson2d(n)
    part = RowPartition(block_partition_2d(n, n, 2, 2), 4)
    fsai = build_fsai(mat, part)
    return (DistMatrix.from_global(mat, part),
            DistVector.from_global(paper_rhs(mat, seed=0), part), (fsai.g, fsai.gt))


def solve_facts(solver, system, tracker):
    da, b, pair = system
    x, iterations = solver(da, b, precond_pair=pair, tracker=tracker)
    return x.values.tobytes(), iterations, tracker.snapshot()


@pytest.mark.parametrize("solver", [spmd_cg, spmd_pipelined_pcg], ids=lambda s: s.__name__)
def test_an_unwatched_solve_never_reaches_the_engine(engine_runs, system, solver):
    da, b, pair = system
    solver(da, b, precond_pair=pair, tracker=CommTracker(), clock=SKYLAKE.clock_model())
    assert engine_runs == []


@pytest.mark.parametrize("solver", [spmd_cg, spmd_pipelined_pcg], ids=lambda s: s.__name__)
def test_a_traced_solve_never_reaches_the_engine(engine_runs, system, solver):
    """The tracer reads the clock ledger: the traced solve gives the
    untraced one's bits and traffic."""
    plain = solve_facts(solver, system, CommTracker())
    with tracing() as (tracer, _):
        traced = solve_facts(solver, system, CommTracker())
    assert engine_runs == []
    assert traced == plain
    assert tracer.by_name("spmd.iteration")


@pytest.mark.parametrize("watcher", ["fault-injector"])
@pytest.mark.parametrize("solver", [spmd_cg], ids=lambda s: s.__name__)
def test_a_watched_solve_runs_on_the_faulted_ledger(engine_runs, system, solver, watcher):
    """A fault plan puts ``spmd_cg`` on the faulted ledger, and an empty one
    gives the unwatched solve's answer and traffic."""
    plain = solve_facts(solver, system, CommTracker())
    with fault_injection(FaultPlan()):
        faulted = solve_facts(solver, system, CommTracker())
    assert engine_runs == [4]
    assert faulted == plain


def test_a_faulted_pipelined_solve_is_a_typed_error(engine_runs, system):
    """The pipelined solve has no faulted run: under a fault plan it names
    the solver that runs faulted instead of running."""
    with fault_injection(FaultPlan()):
        with pytest.raises(CommError, match="spmd_pipelined_pcg cannot run under a fault "
                                            "plan: only spmd_cg runs faulted"):
            solve_facts(spmd_pipelined_pcg, system, CommTracker())
    assert engine_runs == []


def test_a_telemetered_solve_never_reaches_the_engine(engine_runs, system):
    da, b, pair = system
    telemetry = TelemetryConfig()
    spmd_pipelined_pcg(da, b, precond_pair=pair, telemetry=telemetry)
    assert engine_runs == []
    assert telemetry.result.ranks == 4

