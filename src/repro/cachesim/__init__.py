"""Cache simulation substrate (the repo's PAPI-counter stand-in).

* :class:`CacheConfig` — L1 geometry (size/line/associativity).
* :class:`SetAssociativeCache`, :func:`simulate_misses` — LRU simulator.
* :func:`precond_x_misses_per_rank` — the paper's Fig. 3a/5a metric:
  misses on the multiplying vector of ``Gᵀ(Gx)``, per rank.
* line-geometry helpers used by the pattern extensions.

The L1 geometries of the three evaluated machines are defined here as
``L1_SKYLAKE``, ``L1_A64FX`` and ``L1_ZEN2``.
"""

from repro.cachesim.cache import (
    NO_LINE,
    CacheConfig,
    SetAssociativeCache,
    simulate_misses,
)
from repro.cachesim.lines import doubles_per_line, line_ids
from repro.cachesim.spmv_trace import precond_x_misses_per_rank, x_access_lines

#: Intel Xeon Platinum 8160 (Skylake): 32 KiB, 8-way, 64 B lines.
L1_SKYLAKE = CacheConfig(size_bytes=32 * 1024, line_bytes=64, associativity=8)
#: Fujitsu A64FX: 64 KiB, 4-way, 256 B lines.
L1_A64FX = CacheConfig(size_bytes=64 * 1024, line_bytes=256, associativity=4)
#: AMD EPYC 7742 (Zen 2): 32 KiB, 8-way, 64 B lines.
L1_ZEN2 = CacheConfig(size_bytes=32 * 1024, line_bytes=64, associativity=8)

__all__ = [
    "NO_LINE",
    "CacheConfig",
    "SetAssociativeCache",
    "simulate_misses",
    "doubles_per_line",
    "line_ids",
    "x_access_lines",
    "precond_x_misses_per_rank",
]
