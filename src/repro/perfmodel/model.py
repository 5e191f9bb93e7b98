"""Analytic time model: counts → modeled solver time on a target machine.

The paper reports measured wall times; offline, the reproduction computes
them with the SPMD engine's own price list: the kernel work the rank
programs charge (:mod:`repro.dist.spmd`), priced by the machine's
:class:`repro.mpisim.ClockModel`.  One iteration on rank ``p`` is its
product with ``A`` (``spmv_a``), the two products of ``Gᵀ(G·v)``
(``precond``), the *simulated* L1 misses on the multiplying vector times
the miss latency (``misses``, Figures 3a/5a — the one term the engine does
not charge), three halo updates (``halo``: pack, then wait for the largest
incoming message), the method's allreduces (``reductions``) and its vector
updates and dots (``vector_ops``).  Each rank's components are summed and
the slowest rank sets the iteration — the bulk-synchronous bound that makes
load *imbalance* (§5.3.3) visible.  ``threads_per_process`` scales
per-process rates and aggregated L1 (Table 4).  DESIGN.md §2 states how
concurrent halo sends, pipelined PCG's overlap and the miss term are priced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cachesim.spmv_trace import precond_x_misses_per_rank, x_access_lines
from repro.cachesim.cache import simulate_misses
from repro.cachesim.lines import line_ids
from repro.core.precond import Preconditioner
from repro.dist.matrix import DistMatrix
from repro.dist.spmd import (
    CG_ITERATION,
    PIPELINED_ITERATION,
    VALUE_BYTES,
    pack_work,
    spmv_work,
    vector_work,
)
from repro.perfmodel.machine import MachineSpec

__all__ = ["IterationCost", "CostModel", "estimate_solver_time"]

#: ``reduction_phases`` → the rank program whose iteration is priced.
_ITERATIONS = {3: CG_ITERATION, 1: PIPELINED_ITERATION}


@dataclass(frozen=True)
class IterationCost:
    """Modeled seconds of one Krylov iteration.

    ``per_rank`` maps each component to every rank's seconds.  The slowest
    rank — the critical one — sets the iteration time :attr:`total`, and the
    named fields are that rank's components, so they sum to ``total`` and
    the largest names its bottleneck.
    """

    spmv_a: float
    precond: float
    misses: float
    halo: float
    reductions: float
    vector_ops: float
    per_rank: dict = field(repr=False, compare=False)

    @property
    def rank_seconds(self) -> np.ndarray:
        """Every rank's iteration seconds: the sum of its components."""
        return sum(self.per_rank.values())

    @property
    def total(self) -> float:
        """The iteration's seconds: the slowest rank's."""
        return float(self.rank_seconds.max())

    @property
    def waits(self) -> np.ndarray:
        """Every rank's bulk-synchronous wait for the slowest one."""
        return self.total - self.rank_seconds


class CostModel:
    """Per-(matrix, preconditioner, machine) time model.

    Parameters
    ----------
    machine:
        Target system parameters.
    threads_per_process:
        Hybrid configuration: cores (OpenMP threads) per MPI process.  Scales
        per-process FLOP rate, memory bandwidth and aggregated L1 capacity.
    simulate_cache:
        Run the L1 simulator for the ``x`` accesses.  When off, misses are
        approximated by one per distinct touched line per SpMV (fast, used
        by large parameter sweeps).
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        threads_per_process: int = 1,
        simulate_cache: bool = True,
    ):
        if threads_per_process < 1:
            raise ValueError("threads_per_process must be >= 1")
        self.machine = machine
        self.threads = threads_per_process
        self.simulate_cache = simulate_cache
        self.clock = machine.clock_model(threads_per_process)
        self.l1 = machine.l1.scaled(threads_per_process)

    # ------------------------------------------------------------------
    def _spmv_seconds(self, mat: DistMatrix) -> np.ndarray:
        """Per-rank seconds of one product with ``mat`` (misses aside)."""
        return self.clock.kernel_seconds(*spmv_work(mat.nnz_per_rank(), mat.partition.sizes()))

    def _halo_seconds(self, mat: DistMatrix) -> np.ndarray:
        """Per-rank seconds of one halo update of ``mat``: pack what the
        rank sends, then wait for the largest message it receives."""
        sched = mat.schedule
        _, receivers, nbytes = sched.messages
        largest = np.zeros(mat.partition.nparts, dtype=np.int64)
        np.maximum.at(largest, receivers, nbytes)
        return (self.clock.kernel_seconds(*pack_work(sched.send_sizes()))
                + self.clock.exchange_seconds(largest))

    def spmv_misses_per_rank(self, mat: DistMatrix) -> np.ndarray:
        """L1 misses on ``x`` per rank for one SpMV with ``mat``."""
        if self.simulate_cache:  # the simulator replays one rank's stream at a time
            out = np.zeros(mat.partition.nparts, dtype=np.int64)
            for p, lm in enumerate(mat.locals):
                out[p] = simulate_misses(x_access_lines(lm.csr, self.l1.line_bytes), self.l1)
            return out
        # one flag per line a rank's [x_local | halo] spans, rank after rank:
        # the distinct lines each rank touches are its raised flags
        line = self.l1.line_bytes
        offsets, indices = mat.block_entries()
        columns = mat.partition.sizes() + np.diff(mat.schedule.halo_offsets)
        first = np.zeros(columns.size + 1, dtype=np.int64)
        np.cumsum(line_ids(columns - 1, line) + 1, out=first[1:])
        touched = np.zeros(first[-1], dtype=bool)
        touched[line_ids(indices, line) + np.repeat(first[:-1], np.diff(offsets))] = True
        return np.add.reduceat(touched, first[:-1], dtype=np.int64)

    def _precond_misses(self, precond: Preconditioner) -> np.ndarray:
        """L1 misses on ``x`` per rank for one ``Gᵀ(G·x)``: both products
        through one simulated cache, or one per distinct line of each."""
        if self.simulate_cache:
            return precond_x_misses_per_rank(precond.g, precond.gt, self.l1)
        return self.spmv_misses_per_rank(precond.g) + self.spmv_misses_per_rank(precond.gt)

    # ------------------------------------------------------------------
    def iteration_cost(
        self,
        mat: DistMatrix,
        precond: Preconditioner | None,
        *,
        precond_misses: np.ndarray | None = None,
        reduction_phases: int = 3,
    ) -> IterationCost:
        """Modeled time of one iteration of PCG (``reduction_phases=3``:
        :func:`repro.dist.spmd.spmd_cg`'s work) or of pipelined PCG (``1``:
        :func:`repro.dist.spmd.spmd_pipelined_pcg`'s, one fused allreduce).

        ``precond_misses`` lets callers reuse simulated miss counts across
        filter sweeps; when omitted they are computed here.
        """
        work = _ITERATIONS.get(reduction_phases)
        if work is None:
            raise ValueError(
                f"reduction_phases must be 3 (PCG) or 1 (pipelined PCG), "
                f"got {reduction_phases!r}"
            )
        nparts = mat.partition.nparts
        misses = self.spmv_misses_per_rank(mat)
        halo = self._halo_seconds(mat)
        precond_t = np.zeros(nparts)
        if precond is not None:
            precond_t = self._spmv_seconds(precond.g) + self._spmv_seconds(precond.gt)
            misses = misses + (self._precond_misses(precond) if precond_misses is None
                               else precond_misses)
            halo = halo + self._halo_seconds(precond.g) + self._halo_seconds(precond.gt)
        allreduce = self.clock.allreduce_seconds(
            nparts, work.allreduce_values * VALUE_BYTES
        )
        per_rank = {
            "spmv_a": self._spmv_seconds(mat),
            "precond": precond_t,
            "misses": misses * self.machine.miss_penalty,
            "halo": halo,
            "reductions": np.full(nparts, work.allreduces * allreduce),
            "vector_ops": self.clock.kernel_seconds(
                *vector_work(mat.partition.sizes(), work.updates, work.dots)),
        }
        critical = int(np.argmax(sum(per_rank.values())))
        return IterationCost(**{c: float(v[critical]) for c, v in per_rank.items()},
                             per_rank=per_rank)

    def precond_x_read_bytes(self, precond: Preconditioner) -> np.ndarray:
        """Per-rank modeled ``x``-read stream bytes of one ``Gᵀ(Gx)``.

        The multiplying-vector share of the products' memory stream — one
        full ``x`` read per SpMV, two SpMVs — directly comparable against
        the cachesim fill traffic (misses × line size) in
        :class:`repro.observe.memtraffic.CacheConformance`: conforming
        cache behaviour keeps measured fills at or below this stream.
        """
        return precond.g.partition.sizes() * 2.0 * VALUE_BYTES

    def precond_gflops_per_rank(
        self,
        precond: Preconditioner,
        *,
        precond_misses: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-rank GFLOP/s of the preconditioning SpMVs (Figures 3b/5b/7):
        their flops over the seconds :meth:`iteration_cost` charges them
        (``precond`` plus their share of ``misses``)."""
        if precond_misses is None:
            precond_misses = self._precond_misses(precond)
        seconds = (self._spmv_seconds(precond.g) + self._spmv_seconds(precond.gt)
                   + precond_misses * self.machine.miss_penalty)
        flops, _ = spmv_work(precond.g.nnz_per_rank() + precond.gt.nnz_per_rank(), 0)
        return flops / np.where(seconds > 0, seconds, np.inf) / 1e9


def estimate_solver_time(
    iterations: int,
    mat: DistMatrix,
    precond: Preconditioner | None,
    machine: MachineSpec,
    *,
    threads_per_process: int = 1,
    simulate_cache: bool = True,
    precond_misses: np.ndarray | None = None,
) -> float:
    """Modeled time-to-solution: iterations × modeled iteration time."""
    model = CostModel(
        machine,
        threads_per_process=threads_per_process,
        simulate_cache=simulate_cache,
    )
    cost = model.iteration_cost(mat, precond, precond_misses=precond_misses)
    return iterations * cost.total
