"""Preallocated solver workspaces — zero-allocation distributed hot loops.

A :class:`SolverWorkspace` owns every temporary a Krylov solve needs — the
residual/direction/preconditioned vectors and, per operator it applies, one
SpMV input buffer ``[every rank's x_local | every rank's halo]`` whose tail
doubles as the halo receive buffer (the halo update writes straight into
the SpMV operand with no copy).  Each product is one compiled CSR call over
the matrix's stacked :meth:`~repro.dist.matrix.DistMatrix.operator`.

The contract: after warm-up (the first acquisition of each named buffer),
repeated solves through the same workspace perform **zero hot-loop array
allocations**.  The workspace counts every array it creates in
:attr:`allocations` (mirrored to the ``kernels.allocs`` counter of
:mod:`repro.instrument`), which is how the kernels suite's
``pcg_hot_allocs == 0`` claim (``scripts/check_bench.py kernels``) and the
test suite enforce the invariant.

Workspaces hold scratch state and are therefore **not thread-safe**; use one
workspace per thread.  Buffers are keyed by name, so a workspace can be
reused across solves of the same operator family indefinitely.
"""

from __future__ import annotations

import numpy as np

from repro.dist.matrix import DistMatrix
from repro.dist.vector import DistVector
from repro.errors import ShapeError
from repro.instrument import get_metrics

__all__ = ["SolverWorkspace"]


class _OperatorState:
    """One operator's stacked plan and its input buffer
    ``X = [x_local of every rank | halo of every rank]``."""

    __slots__ = ("dmat", "plan", "xin", "x_local", "halo")

    def __init__(self, dmat: DistMatrix):
        self.dmat = dmat
        self.plan = dmat.operator()
        self.xin = np.empty(self.plan.ncols, dtype=np.float64)
        self.x_local = self.xin[: self.plan.nrows]
        self.halo = self.xin[self.plan.nrows :]


class SolverWorkspace:
    """Reusable buffers for distributed Krylov solves.

    Parameters
    ----------
    mat:
        The system matrix; its partition defines every vector buffer.  Input
        buffers for further operators (e.g. the preconditioner's ``G`` /
        ``Gᵀ``) are registered lazily on first application.  Operand vectors
        must keep their parts as views of their float64 buffer
        (:meth:`DistVector.check_views`); anything else raises
        :class:`ValueError` rather than being silently ignored or cast.

    Attributes
    ----------
    allocations:
        Total arrays this workspace has allocated (one per vector, one per
        operator).  Constant once every buffer is warm — the no-allocation
        invariant asserted by ``scripts/check_bench.py kernels``.
    """

    def __init__(self, mat: DistMatrix):
        self.mat = mat
        self.partition = mat.partition
        self.allocations = 0
        self._vectors: dict[str, DistVector] = {}
        self._ops: dict[int, _OperatorState] = {}
        self._register(mat)

    # ------------------------------------------------------------------
    def _count_allocs(self, n: int) -> None:
        self.allocations += n
        get_metrics().counter("kernels.allocs").inc(n)

    def _register(self, dmat: DistMatrix) -> _OperatorState:
        state = _OperatorState(dmat)
        self._ops[id(dmat)] = state
        self._count_allocs(1)
        return state

    def operator(self, dmat: DistMatrix) -> _OperatorState:
        """Operator/buffer state for ``dmat``, registered on first use."""
        state = self._ops.get(id(dmat))
        if state is None:
            state = self._register(dmat)
        return state

    def vector(self, name: str) -> DistVector:
        """The named preallocated :class:`DistVector` (created on first use).

        Contents persist between calls; callers own the naming discipline
        (two live uses of the same name would alias).
        """
        vec = self._vectors.get(name)
        if vec is None:
            vec = DistVector.zeros(self.partition)
            self._vectors[name] = vec
            self._count_allocs(1)
        return vec

    # ------------------------------------------------------------------
    def spmv(
        self,
        dmat: DistMatrix,
        x: DistVector,
        out: DistVector | None = None,
        tracker=None,
    ) -> DistVector:
        """Distributed ``out = dmat · x``: one copy, one gather, one product.

        ``x.values`` is copied into the head of the operator's input buffer
        ``X``, the halo update gathers every rank's halo into its tail
        (:meth:`HaloSchedule.gather`), and one compiled CSR call over the
        stacked operator (:meth:`DistMatrix.operator`) writes
        ``out.values`` — zero allocations once the operator is warm.
        """
        if x.partition != dmat.partition:
            raise ShapeError("operand lives on a different partition")
        state = self.operator(dmat)
        if out is None:
            out = self.vector(f"spmv.out.{id(dmat)}")
        x.check_views("x")
        out.check_views("out")
        np.copyto(state.x_local, x.values)
        dmat.schedule.gather(x, state.halo, tracker)
        state.plan.spmv(state.xin, out=out.values)
        return out

    def __repr__(self) -> str:
        return (
            f"SolverWorkspace(nparts={self.partition.nparts}, "
            f"vectors={len(self._vectors)}, operators={len(self._ops)}, "
            f"allocations={self.allocations})"
        )
