"""Preallocated solver workspaces — zero-allocation distributed hot loops.

A :class:`SolverWorkspace` owns every temporary a Krylov solve needs — the
residual/direction/preconditioned vectors, the per-rank SpMV input vectors
``[x_local | x_halo]`` (whose tail doubles as the halo receive buffer, so the
halo update writes straight into the SpMV operand with no copy), and the
:class:`~repro.kernels.plan.SpMVPlan` set of every operator it applies.

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
    """Per-operator plan set and SpMV input buffers (one per rank)."""

    __slots__ = ("dmat", "plans", "xin", "halo_views")

    def __init__(self, dmat: DistMatrix):
        self.dmat = dmat
        self.plans = dmat.plans()
        self.xin: list[np.ndarray] = []
        self.halo_views: list[np.ndarray] = []
        for lm in dmat.locals:
            buf = np.empty(lm.n_local + lm.n_halo, dtype=np.float64)
            self.xin.append(buf)
            self.halo_views.append(buf[lm.n_local:])

    @property
    def narrays(self) -> int:
        return len(self.xin)


class SolverWorkspace:
    """Reusable buffers and kernel plans for distributed Krylov solves.

    Parameters
    ----------
    mat:
        The system matrix; its partition defines every vector buffer.  Plans
        and input buffers for further operators (e.g. the preconditioner's
        ``G`` / ``Gᵀ``) are registered lazily on first application.  Operand
        vectors must be float64 NumPy arrays; anything else raises
        :class:`ValueError` rather than silently casting into the buffers.

    Attributes
    ----------
    allocations:
        Total arrays this workspace has allocated.  Constant once every
        buffer is warm — the no-allocation invariant asserted by
        ``scripts/check_bench.py kernels``.
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
        self._count_allocs(state.narrays)
        return state

    def operator(self, dmat: DistMatrix) -> _OperatorState:
        """Plan/buffer state for ``dmat``, registered on first use.

        Reuse is counted in the ``kernels.plan_cache.hits`` /
        ``kernels.plan_cache.misses`` instrumentation counters.
        """
        state = self._ops.get(id(dmat))
        if state is None:
            get_metrics().counter("kernels.plan_cache.misses").inc()
            state = self._register(dmat)
        else:
            get_metrics().counter("kernels.plan_cache.hits").inc()
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
            self._count_allocs(len(vec.parts))
        return vec

    # ------------------------------------------------------------------
    def spmv(
        self,
        dmat: DistMatrix,
        x: DistVector,
        out: DistVector | None = None,
        tracker=None,
    ) -> DistVector:
        """Distributed ``out = dmat · x`` through cached plans and buffers.

        The halo update writes directly into the tail of each rank's
        preallocated ``[x_local | x_halo]`` input vector; the local products
        run through :class:`SpMVPlan` with ``out=`` — zero allocations once
        the operator is warm.
        """
        if x.partition != dmat.partition:
            raise ShapeError("operand lives on a different partition")
        state = self.operator(dmat)
        if out is None:
            out = self.vector(f"spmv.out.{id(dmat)}")
        self._check_parts(x, "x")
        self._check_parts(out, "out")
        dmat.schedule.update(x.parts, tracker, out=state.halo_views)
        for p, lm in enumerate(dmat.locals):
            xin = state.xin[p]
            xin[: lm.n_local] = x.parts[p]
            state.plans[p].spmv(xin, out=out.parts[p])
        return out

    def _check_parts(self, vec: DistVector, label: str) -> None:
        """Reject operand vectors that would silently cast into the buffers."""
        for p, part in enumerate(vec.parts):
            if not isinstance(part, np.ndarray):
                raise ValueError(
                    f"{label}.parts[{p}] is {type(part).__name__}; workspace "
                    "operands must be numpy arrays"
                )
            if part.dtype != np.float64:
                raise ValueError(
                    f"{label}.parts[{p}] has dtype {part.dtype}; workspace "
                    "buffers are float64 and refuse to cast silently — "
                    "convert the operand explicitly"
                )

    def __repr__(self) -> str:
        return (
            f"SolverWorkspace(nparts={self.partition.nparts}, "
            f"vectors={len(self._vectors)}, operators={len(self._ops)}, "
            f"allocations={self.allocations})"
        )
