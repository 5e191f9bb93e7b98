"""Bitwise oracles for the stacked per-matrix operator.

``SolverWorkspace.spmv`` runs every rank's block of a ``DistMatrix`` as one
compiled CSR call over ``X = [every rank's x_local | every rank's halo]``
(``DistMatrix.operator``).  It must reproduce the per-rank product —
``SpMVPlan(lm.csr).spmv([x_local | x_halo])`` on each rank — bit for bit,
which holds only while every row is summed in its stored order.  Each
oracle below first shows that its data can tell: summing the rows in
reverse order changes some bits.  Traced and fault-injected runs take the
per-message halo path into the same buffer; their solves must equal the
plain ones bit for bit as well.  The SPMD rank programs run each rank's
block through the same compiled loop, so their fused products are the
operator's rows bit for bit too.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from rank_programs import Block, Rank
from spmd_engine import run_spmd

from repro.core import ExtensionMode, ExtensionWorkspace, FilterSpec, pcg, pipelined_pcg
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.instrument import tracing
from repro.kernels import SolverWorkspace, SpMVPlan
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import CommTracker
from repro.partition import block_partition_2d
from repro.resilience import FaultPlan, fault_injection
from repro.sparse import CSRMatrix


def per_rank_product(dmat: DistMatrix, x: DistVector, *, reverse_rows=False) -> np.ndarray:
    """The oracle: one plan per rank on ``[x_local | x_halo]``; with
    ``reverse_rows`` every row is summed last entry first."""
    halos = dmat.schedule.update(x.parts)
    out = []
    for lm, x_local, halo in zip(dmat.locals, x.parts, halos):
        csr = lm.csr
        if reverse_rows:
            order = np.concatenate([
                np.arange(hi - 1, lo - 1, -1)
                for lo, hi in zip(csr.indptr[:-1], csr.indptr[1:])
            ] + [np.empty(0, dtype=np.int64)])
            csr = CSRMatrix(csr.shape, csr.indptr, csr.indices[order], csr.data[order],
                            check=False)
        out.append(SpMVPlan(csr).spmv(np.concatenate([x_local, halo])))
    return np.concatenate(out)


def spread_vector(rng, part: RowPartition) -> DistVector:
    """Entries over sixteen decades, so that summation order shows."""
    x = rng.standard_normal(part.nrows) * 10.0 ** rng.uniform(-8, 8, part.nrows)
    return DistVector.from_global(x, part)


def random_partition(rng, n: int, nparts: int) -> RowPartition:
    owner = np.concatenate([np.arange(nparts), rng.integers(0, nparts, n - nparts)])
    return RowPartition(rng.permutation(owner), nparts)


def assert_stacked_is_per_rank(rng, dmat: DistMatrix) -> None:
    x = spread_vector(rng, dmat.partition)
    oracle = per_rank_product(dmat, x)
    assert not np.array_equal(per_rank_product(dmat, x, reverse_rows=True), oracle)
    got = SolverWorkspace(dmat).spmv(dmat, x).values
    assert got.tobytes() == oracle.tobytes()


def block_system(rng) -> tuple[CSRMatrix, RowPartition]:
    """Five ranks: three share a random sparse coupling, rank 3 owns a
    diagonal block (no halo) and rank 4 owns empty rows (no entries)."""
    coupled = random_sparse_square(rng, 30, density=0.3)
    rows, cols, vals = coupled.to_coo()
    diag = np.arange(30, 35)
    rows = np.concatenate([rows, diag])
    cols = np.concatenate([cols, diag])
    vals = np.concatenate([vals, rng.standard_normal(5)])
    mat = CSRMatrix.from_coo((40, 40), rows, cols, vals)
    owner = np.concatenate([random_partition(rng, 30, 3).owner, [3] * 5, [4] * 5])
    return mat, RowPartition(owner, 5)


def random_sparse_square(rng, n: int, density: float) -> CSRMatrix:
    dense = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-4, 4, (n, n))
    return CSRMatrix.from_dense(np.where(rng.random((n, n)) < density, dense, 0.0), tol=0.0)


@pytest.mark.parametrize("seed", range(4))
def test_a_random_matrix_on_a_random_partition(seed):
    rng = np.random.default_rng(seed)
    mat = random_sparse_square(rng, 60, density=0.15)
    assert_stacked_is_per_rank(rng, DistMatrix.from_global(mat, random_partition(rng, 60, 5)))


def test_an_empty_rank_and_a_rank_without_halo():
    rng = np.random.default_rng(11)
    mat, part = block_system(rng)
    dmat = DistMatrix.from_global(mat, part)
    assert dmat.locals[3].n_halo == 0 and dmat.locals[3].nnz == 5
    assert dmat.locals[4].nnz == 0
    assert_stacked_is_per_rank(rng, dmat)


@pytest.mark.parametrize("seed", range(3))
def test_fsaie_comm_factor_and_its_transpose(seed):
    rng = np.random.default_rng(seed)
    mat = poisson2d(12)
    part = random_partition(rng, mat.nrows, 6)
    pre = ExtensionWorkspace("FSAIE-Comm", mat, part, ExtensionMode.COMM).finalize(
        FilterSpec(0.01, dynamic=True)
    )
    assert_stacked_is_per_rank(rng, DistMatrix.from_global(mat, part))
    assert_stacked_is_per_rank(rng, pre.g)
    assert_stacked_is_per_rank(rng, pre.gt)


def spmd_products(dmat: DistMatrix, x: DistVector) -> np.ndarray:
    """Every rank program's fused product of ``x``, rank after rank."""

    async def prog(comm):
        return await Rank(comm).spmv(Block(comm, dmat),
                                      x.parts[comm.rank])

    return np.concatenate(run_spmd(prog, dmat.partition.nparts))


def test_spmd_rank_products_are_the_operator_rows():
    """At 16 ranks, each rank program's fused product of A, G and Gᵀ
    (FSAIE-Comm) equals its rows of the stacked operator's product."""
    rng = np.random.default_rng(4)
    mat = poisson2d(16)
    part = RowPartition(block_partition_2d(16, 16, 4, 4), 16)
    pre = ExtensionWorkspace("FSAIE-Comm", mat, part, ExtensionMode.COMM).finalize(
        FilterSpec(0.01, dynamic=True)
    )
    for dmat in (DistMatrix.from_global(mat, part), pre.g, pre.gt):
        x = spread_vector(rng, part)
        stacked = SolverWorkspace(dmat).spmv(dmat, x).values
        assert not np.array_equal(per_rank_product(dmat, x, reverse_rows=True), stacked)
        assert spmd_products(dmat, x).tobytes() == stacked.tobytes()


def test_a_matrix_built_from_stacked_copies_is_per_rank():
    """The constructor takes the stacked blocks; its rank views and its
    operator share their values."""
    rng = np.random.default_rng(9)
    mat = random_sparse_square(rng, 50, density=0.2)
    dist = DistMatrix.from_global(mat, random_partition(rng, 50, 4))
    offsets, indices = dist.block_entries()
    own = DistMatrix(dist.partition, dist.schedule, dist.shape, dist.indptr.copy(),
                     indices.copy(), dist._values.copy())
    assert_stacked_is_per_rank(rng, own)
    op = own.operator()
    for lm in own.locals:
        assert lm.csr.data.base is op.mat.data


def test_a_matrix_nothing_applies_gives_its_operator_back():
    """The matrix holds its operator weakly: the stacked indices live as
    long as a workspace (or a caller) applies the matrix."""
    rng = np.random.default_rng(2)
    mat = poisson2d(8)
    dmat = DistMatrix.from_global(mat, random_partition(rng, mat.nrows, 3))
    ws = SolverWorkspace(dmat)
    op = dmat.operator()
    assert ws.operator(dmat).plan is op
    del ws, op
    gc.collect()
    assert dmat._operator() is None
    # the values stay the blocks' own: a rebuilt operator shares them again
    assert np.shares_memory(dmat.locals[0].csr.data, dmat.operator().mat.data)


def test_the_operator_books_every_message_as_the_per_rank_update():
    rng = np.random.default_rng(5)
    mat = poisson2d(12)
    dmat = DistMatrix.from_global(mat, random_partition(rng, mat.nrows, 6))
    x = spread_vector(rng, dmat.partition)
    stacked, per_rank = CommTracker(), CommTracker()
    SolverWorkspace(dmat).spmv(dmat, x, tracker=stacked)
    dmat.schedule.update(x.parts, per_rank)
    assert stacked.snapshot() == per_rank.snapshot()
    assert stacked.total_messages == len(dmat.schedule.edges()) > 0


@pytest.fixture(scope="module")
def comm_system():
    mat = poisson2d(16)
    part = RowPartition.from_matrix(mat, 4, seed=7)
    pre = ExtensionWorkspace("FSAIE-Comm", mat, part, ExtensionMode.COMM).finalize(
        FilterSpec(0.01, dynamic=True)
    )
    da = DistMatrix.from_global(mat, part)
    return da, DistVector.from_global(paper_rhs(mat, seed=3), part), pre


@pytest.mark.parametrize("solver", [pcg, pipelined_pcg], ids=lambda s: s.__name__)
def test_traced_and_fault_injected_solves_are_the_plain_solve(comm_system, solver):
    da, b, pre = comm_system
    plain_tracker, injected_tracker = CommTracker(), CommTracker()
    plain = solver(da, b, precond=pre, tracker=plain_tracker)
    with tracing():
        traced = solver(da, b, precond=pre)
    with fault_injection(FaultPlan()):
        injected = solver(da, b, precond=pre, tracker=injected_tracker)
    assert plain.converged
    for other in (traced, injected):
        assert other.x.values.tobytes() == plain.x.values.tobytes()
        assert other.residual_norms == plain.residual_norms
    assert injected_tracker.snapshot() == plain_tracker.snapshot()
