"""Distributed linear algebra: row partitions, halos, distributed matrices.

Two execution engines share these data structures:

* the deterministic bulk-synchronous (BSP) methods on
  :class:`DistMatrix`/:class:`DistVector`, used by the solver and benchmarks;
* the SPMD functions in :mod:`repro.dist.spmd`, which run the identical
  algorithms as rank programs on :mod:`repro.mpisim` while a run is
  watched, and otherwise as one text over all ranks with a per-rank clock
  ledger.
"""

from repro.dist.halo import HaloSchedule
from repro.dist.matrix import DistMatrix, LocalMatrix
from repro.dist.partition_map import RowPartition
from repro.dist.spmd import (
    spmd_cg,
    spmd_halo_update,
    spmd_pipelined_pcg,
)
from repro.dist.vector import DistVector

__all__ = [
    "RowPartition",
    "HaloSchedule",
    "DistVector",
    "LocalMatrix",
    "DistMatrix",
    "spmd_halo_update",
    "spmd_cg",
    "spmd_pipelined_pcg",
]
