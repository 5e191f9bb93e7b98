"""Work-count guard: no per-row (per-access) Python in the set-up hot loops.

Each function below runs between the matrix and the answer on every
``repro compare`` — pattern union, diagonal extraction, distribution, halo
discovery, cache replay — and each was once a Python loop over rows (or
accesses) that dominated the run.  The guard counts the work
the interpreter does, not seconds, so it cannot flake: the number of Python
frames entered (``sys.setprofile`` ``call`` events; C builtins raise
``c_call`` and are not counted) must not change when the input grows 8×.
``HaloSchedule.from_row_structure`` is counted in executed lines
(``sys.settrace``) instead, because its old per-row loop made no calls.
An ``ExtensionWorkspace`` solves its extended pattern's nested runs of rows
as supernodes, and ``finalize`` sorts rows into classes (kept, base, solved
again); both must do that, too, without a Python call per row.  A BSP
``pcg`` / ``pipelined_pcg`` iteration must cost as many Python calls on 16
ranks as on 2: no call per rank.  The clocked executor, which runs every
unwatched ``spmd_cg`` / ``spmd_pipelined_pcg`` solve, must cost a fixed
number of calls per iteration on 16 ranks as on 256: nothing per rank.
So must a telemetered ``spmd_pipelined_pcg``, whose ledger records every
rank's observations and builds the histograms after the run.  The row
distribution (``RowPartition``, ``HaloSchedule.from_row_structure``,
``DistMatrix.from_global``) builds every rank at once, into stacked arrays
whose per-rank views are built only on first access, and so do the FSAI and
FSAIE-Comm set-ups, Alg. 3's extension and Alg. 4's filter bisection
included: each costs as many calls on 256 ranks as on 16.  The rank
programs on the test engine are not counted: they exchange point to
point, a Python call per message by design, and only oracle runs execute
them; nor is a faulted solve, which sends its messages one at a time.
"""

from __future__ import annotations

import functools
import gc
import sys

import numpy as np
import pytest
from extension_oracle import extension_entry_mask

from repro.cachesim import CacheConfig, SetAssociativeCache
from repro.core import (
    ExtensionMode,
    ExtensionWorkspace,
    FilterSpec,
    build_fsai,
    build_fsaie_comm,
    compute_g_values,
    pcg,
    pipelined_pcg,
)
from repro.dist import (
    DistMatrix,
    DistVector,
    HaloSchedule,
    RowPartition,
    spmd_cg,
    spmd_pipelined_pcg,
)
from repro.kernels import SolverWorkspace
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import CommTracker
from repro.observe import TelemetryConfig
from repro.partition import block_partition_2d
from repro.perfmodel import SKYLAKE, CostModel
from repro.sparse import CSRMatrix, SparsityPattern

SMALL, GROWTH = 96, 8


def without_collector(count):
    """Run a count with the cyclic collector off: a collection would run
    other objects' finalizers (closing a stray generator enters its
    frame) inside the count."""

    @functools.wraps(count)
    def counted(fn, *args) -> int:
        gc.collect()
        gc.disable()
        try:
            return count(fn, *args)
        finally:
            gc.enable()

    return counted


@without_collector
def python_calls(fn, opaque=frozenset()) -> int:
    """Python frames entered while ``fn()`` runs; a call of a function whose
    code object is in ``opaque`` counts as one, with every frame it enters."""
    calls, depth = 0, 0

    def profiler(frame, event, arg):
        nonlocal calls, depth
        if event == "call":
            if depth:
                depth += 1
            else:
                calls += 1
                depth = frame.f_code in opaque
        elif event == "return" and depth:
            depth -= 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


@without_collector
def python_lines(fn) -> int:
    """Source lines executed (in any Python frame) while ``fn()`` runs."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return lines


def banded(n: int, offsets=(-2, -1, 0, 1, 2)) -> CSRMatrix:
    rows = np.concatenate([np.arange(max(0, -k), min(n, n - k)) for k in offsets])
    cols = np.concatenate([np.arange(max(0, -k), min(n, n - k)) + k for k in offsets])
    return CSRMatrix.from_coo((n, n), rows, cols, np.ones(rows.size))


def union(n):
    a = SparsityPattern.from_csr(banded(n, (-1, 0, 1)))
    b = SparsityPattern.from_csr(banded(n, (-3, 0, 2)))
    return lambda: a.union(b)


def diagonal(n):
    return banded(n).diagonal


def extension_mask(n):
    """The extension mask by lookup (the set-up's oracle, ``extension_oracle``)."""
    g, base = banded(n), SparsityPattern.from_csr(banded(n, (-1, 0)))
    return lambda: extension_entry_mask(g, base)


def from_global(n):
    mat, part = banded(n), RowPartition.contiguous(n, 4)
    return lambda: DistMatrix.from_global(mat, part)


def from_row_structure(n):
    mat, part = banded(n), RowPartition.contiguous(n, 4)
    return lambda: HaloSchedule.from_row_structure(part, mat.indptr, mat.indices)


def access_stream(n):
    stream = np.random.default_rng(0).integers(0, 64, size=8 * n)
    cache = SetAssociativeCache(CacheConfig(2 * 4 * 64, 64, 4))
    return lambda: cache.access_stream(stream)


@pytest.mark.parametrize(
    "case, count",
    [
        (union, python_calls),
        (diagonal, python_calls),
        (extension_mask, python_calls),
        (from_global, python_calls),
        (from_row_structure, python_lines),
        (access_stream, python_calls),
    ],
    ids=lambda x: x.__name__,
)
def test_interpreter_work_does_not_grow_with_the_input(case, count):
    case(SMALL)()  # lazy imports and first-call set-up inside NumPy happen here
    small, large = count(case(SMALL)), count(case(GROWTH * SMALL))
    assert small > 0
    assert large == small, (
        f"{case.__name__}: {small} {count.__name__} at n={SMALL}, "
        f"{large} at n={GROWTH * SMALL} — per-row Python is back"
    )


def diagonally_dominant(n: int) -> CSRMatrix:
    stencil = banded(n)
    rows = np.repeat(np.arange(n), stencil.row_nnz())
    return CSRMatrix(
        stencil.shape, stencil.indptr, stencil.indices,
        np.where(rows == stencil.indices, 5.0, -1.0),
    )


def precalculate(n):
    """A workspace: the extended pattern and ``G`` on it, whose nested runs
    of rows are solved as supernodes."""
    mat = diagonally_dominant(n)
    return lambda: ExtensionWorkspace(
        "X", mat, RowPartition.contiguous(n, 4), ExtensionMode.COMM
    )


def finalize(n):
    """Two filters on one workspace: the first keeps some rows and re-solves
    the rest, the second sends every extended row to its base-FSAI row."""
    ws = precalculate(n)()
    return lambda: [ws.finalize(FilterSpec(f, dynamic=False)) for f in (0.1, 0.2)]


def constant_or_fewer(case) -> None:
    case(SMALL)()
    small, large = python_calls(case(SMALL)), python_calls(case(GROWTH * SMALL))
    # fewer is fine: batches too large for the table gather skip its helpers
    assert 0 < large <= small, (
        f"{case.__name__}: {small} Python calls at n={SMALL}, {large} at n={GROWTH * SMALL}"
    )


def test_precalculation_makes_no_per_row_python_call():
    constant_or_fewer(precalculate)


def test_finalize_makes_no_per_row_python_call():
    constant_or_fewer(finalize)


def calls_per_iteration(solver, px: int, py: int, n: int = 48) -> float:
    """Python calls per iteration of a BSP solve of poisson2d(n) with
    FSAIE-Comm on a ``px × py`` rank grid, with a tracker booking every
    message: the difference between budgets of 30 and 10 iterations on a
    warm workspace, so the per-solve set-up cancels."""
    mat = poisson2d(n)
    part = RowPartition(block_partition_2d(n, n, px, py), px * py)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=0), part)
    pre = ExtensionWorkspace("FSAIE-Comm", mat, part, ExtensionMode.COMM).finalize(
        FilterSpec(0.01, dynamic=True)
    )
    ws, tracker = SolverWorkspace(da), CommTracker()

    def run(budget):
        return lambda: solver(da, b, precond=pre, rtol=0.0, max_iterations=budget,
                              workspace=ws, tracker=tracker)

    run(3)()
    return (python_calls(run(30)) - python_calls(run(10))) / 20


@pytest.mark.parametrize("solver", [pcg, pipelined_pcg], ids=lambda s: s.__name__)
def test_a_krylov_iteration_makes_no_python_call_per_rank(solver):
    two = calls_per_iteration(solver, 2, 1)
    sixteen = calls_per_iteration(solver, 4, 4)
    assert two > 0
    assert sixteen == two, (
        f"{solver.__name__}: {two} Python calls per iteration on 2 ranks, "
        f"{sixteen} on 16 — per-rank Python is back"
    )


def calls_per_spmd_iteration(solver, px: int) -> float:
    """Python calls per iteration of an SPMD solve of poisson2d(8·px) with
    FSAI on a ``px × px`` rank grid (64 rows a rank), all ranks together:
    the difference between budgets of 11 and 1 iterations, so the per-run
    set-up cancels.  ``solver(da, b, budget, precond_pair)``."""
    n = 8 * px
    mat = poisson2d(n)
    part = RowPartition(block_partition_2d(n, n, px, px), px * px)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=0), part)
    fsai = build_fsai(mat, part)

    def run(budget):
        return lambda: solver(da, b, budget, (fsai.g, fsai.gt))

    run(1)()
    return (python_calls(run(11)) - python_calls(run(1))) / 10


def clocked_cg(da, b, budget, pair):
    return spmd_cg(da, b, rtol=0.0, max_iterations=budget, precond_pair=pair)


def clocked_pipelined_pcg(da, b, budget, pair):
    return spmd_pipelined_pcg(da, b, rtol=0.0, max_iterations=budget, precond_pair=pair)


#: Python calls per iteration of an unwatched solve, on any number of
#: ranks: the clocked executor runs the rank program's text once.
CLOCKED_CALLS = {clocked_cg: 29, clocked_pipelined_pcg: 27}


@pytest.mark.parametrize("solver", list(CLOCKED_CALLS), ids=lambda s: s.__name__)
def test_a_clocked_iteration_makes_no_python_call_per_rank(solver):
    counts = {px * px: calls_per_spmd_iteration(solver, px) for px in (4, 8, 16)}
    assert counts == dict.fromkeys(counts, CLOCKED_CALLS[solver]), (
        f"{solver.__name__}: Python calls per iteration by rank count {counts}, "
        f"not {CLOCKED_CALLS[solver]} on each — per-rank Python is back"
    )


def telemetered_pipelined_pcg(da, b, budget, pair):
    return spmd_pipelined_pcg(da, b, rtol=0.0, max_iterations=budget, precond_pair=pair,
                              tracker=CommTracker(), telemetry=TelemetryConfig(rank_sample=8))


#: Python calls per iteration of a telemetered solve, on any number of
#: ranks: each observation is one record for all ranks, and the histograms
#: are built with array operations after the run.
TELEMETERED_CALLS = 40


def test_a_telemetered_iteration_makes_no_python_call_per_rank():
    counts = {px * px: calls_per_spmd_iteration(telemetered_pipelined_pcg, px)
              for px in (4, 8, 16)}
    assert counts == dict.fromkeys(counts, TELEMETERED_CALLS), (
        f"telemetered spmd_pipelined_pcg: Python calls per iteration by rank count "
        f"{counts}, not {TELEMETERED_CALLS} on each — per-rank Python is back"
    )


def rank_grid(px: int):
    """poisson2d(8·px) on a ``px × px`` rank grid: 64 rows a rank."""
    n = 8 * px
    owner = block_partition_2d(n, n, px, px)
    return poisson2d(n), owner, RowPartition(owner, px * px)


def partition_owner_map(mat, owner, part):
    return lambda: RowPartition(owner, part.nparts)


def halo_schedule(mat, owner, part):
    return lambda: HaloSchedule.from_row_structure(part, mat.indptr, mat.indices)


def distribute(mat, owner, part):
    return lambda: DistMatrix.from_global(mat, part)


def fsai_setup(mat, owner, part):
    return lambda: build_fsai(mat, part)


def fsaie_comm_setup(mat, owner, part):
    return lambda: build_fsaie_comm(mat, part, filter=FilterSpec(0.01, dynamic=True))


#: (a, b) of the a·P + b Python calls one call costs on P ranks (the
#: counting lambda's frame included in b).
DISTRIBUTION_CALLS = {
    partition_owner_map: (0, 16),
    halo_schedule: (0, 33),
    distribute: (0, 97),
    fsai_setup: (0, 519),
    fsaie_comm_setup: (0, 645),
}


#: ``compute_g_values`` and ``finalize``'s row classes
#: (``ExtensionWorkspace._refactor``), counted as one call each in the
#: FSAIE-Comm set-up: their work follows the rows and the supernodes they
#: form, not the ranks, and is pinned per row above.
ROW_SOLVES = frozenset({compute_g_values.__code__, ExtensionWorkspace._refactor.__code__})


def calls_by_rank_count(case, opaque=frozenset()) -> tuple[dict, int, int]:
    """Python calls of one warm call of ``case`` on 16 and 256 ranks, and
    the ``(a, b)`` of ``a·P + b`` through them."""
    counts = {}
    for px in (4, 16):
        fn = case(*rank_grid(px))
        fn()
        counts[px * px] = python_calls(fn, opaque)
    a = (counts[256] - counts[16]) // 240
    assert counts[256] - counts[16] == 240 * a
    return counts, a, counts[16] - 16 * a


@pytest.mark.parametrize("case", list(DISTRIBUTION_CALLS), ids=lambda c: c.__name__)
def test_the_row_distribution_makes_no_python_call_per_rank(case):
    opaque = ROW_SOLVES if case is fsaie_comm_setup else frozenset()
    counts, a, b = calls_by_rank_count(case, opaque)
    want_a, want_b = DISTRIBUTION_CALLS[case]
    assert (a, b) == (want_a, want_b), (
        f"{case.__name__}: Python calls by rank count {counts}, not "
        f"{want_a}·P + {want_b} — per-rank Python is back"
    )


def clocked_run(solver):
    """A budget-1 FSAI-preconditioned solve booking into a tracker: the
    executor's per-run set-up (pricing every rank's kernels, its dot
    groups), one iteration, and the booking of its traffic."""

    def run(mat, owner, part):
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, seed=0), part)
        fsai = build_fsai(mat, part)
        return lambda: solver(da, b, rtol=0.0, max_iterations=1,
                              precond_pair=(fsai.g, fsai.gt), tracker=CommTracker())

    run.__name__ = f"clocked_{solver.__name__}"
    return run


def iteration_cost(mat, owner, part):
    """Both iterations the cost model prices, counting distinct lines."""
    da, fsai = DistMatrix.from_global(mat, part), build_fsai(mat, part)
    model = CostModel(SKYLAKE, simulate_cache=False)
    return lambda: [model.iteration_cost(da, fsai, reduction_phases=k) for k in (3, 1)]


#: (b of 0·P + b) Python calls per run on P ranks, the counting lambda's
#: frame included: nothing of a clocked run or of the cost model is per rank.
PER_RUN_CALLS = {
    clocked_run(spmd_cg): 325,
    clocked_run(spmd_pipelined_pcg): 290,
    iteration_cost: 236,
}


@pytest.mark.parametrize("case", list(PER_RUN_CALLS), ids=lambda c: c.__name__)
def test_a_clocked_run_and_its_cost_make_no_python_call_per_rank(case):
    counts, a, b = calls_by_rank_count(case)
    assert (a, b) == (0, PER_RUN_CALLS[case]), (
        f"{case.__name__}: Python calls by rank count {counts}, not "
        f"0·P + {PER_RUN_CALLS[case]} — per-rank Python is back"
    )
