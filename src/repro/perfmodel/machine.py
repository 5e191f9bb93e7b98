"""Machine models of the paper's three evaluation systems.

The paper measures wall time on MareNostrum (Intel Skylake), CTE-ARM
(Fujitsu A64FX) and Hawk (AMD Zen 2).  Offline we replace the hardware with
explicit per-machine parameters: cache geometry for the extension algorithms
and the cache simulator, core rates and memory bandwidth for the roofline
part of the model, and an α–β network for communication.

Numbers are public-spec derived (per-core effective figures for SpMV-like
streaming workloads), not calibrated to the paper's testbeds — the model is
used for *relative* comparisons between preconditioners, which is what the
reproduction validates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cachesim.cache import CacheConfig
from repro.mpisim import ClockModel

__all__ = ["MachineSpec", "SKYLAKE", "A64FX", "ZEN2", "MACHINES"]


@dataclass(frozen=True)
class MachineSpec:
    """Hardware parameters of one evaluation system.

    Attributes
    ----------
    name:
        Identifier used in benchmark output.
    l1:
        Per-core L1D geometry (line size drives the pattern extensions).
    core_flops:
        Effective per-core FLOP/s sustained on sparse kernels.
    core_mem_bw:
        Effective per-core main-memory bandwidth in bytes/s.
    miss_penalty:
        Seconds per L1 miss beyond the streamed traffic (latency component).
    net_latency:
        Per-message latency α in seconds.
    net_bandwidth:
        Per-link bandwidth β in bytes/s.
    cores_per_node:
        For converting core counts to node counts (Tables 1–2).
    """

    name: str
    l1: CacheConfig
    core_flops: float
    core_mem_bw: float
    miss_penalty: float
    net_latency: float
    net_bandwidth: float
    cores_per_node: int

    @property
    def cache_line_bytes(self) -> int:
        """L1 line size in bytes (the extension parameter)."""
        return self.l1.line_bytes

    def clock_model(self, threads_per_process: int = 1) -> ClockModel:
        """The modeled clock of an SPMD run on this machine: the α–β link
        and the per-process roofline rates :class:`CostModel` predicts with,
        as the numbers the SPMD solvers (:mod:`repro.dist.spmd`) take."""
        return ClockModel(
            alpha=self.net_latency,
            beta=1.0 / self.net_bandwidth,
            flop=1.0 / (self.core_flops * threads_per_process),
            byte=1.0 / (self.core_mem_bw * threads_per_process),
        )


#: MareNostrum 4 node: 2× Intel Xeon Platinum 8160 (Skylake), 2.1 GHz.
SKYLAKE = MachineSpec(
    name="skylake",
    l1=CacheConfig(32 * 1024, 64, 8),
    core_flops=2.0e9,
    core_mem_bw=12.0e9,
    miss_penalty=20.0e-9,
    net_latency=1.5e-6,
    net_bandwidth=12.5e9,
    cores_per_node=48,
)

#: CTE-ARM node: 1× Fujitsu A64FX, 2.2 GHz, HBM2, 256 B cache lines.
A64FX = MachineSpec(
    name="a64fx",
    l1=CacheConfig(64 * 1024, 256, 4),
    core_flops=2.5e9,
    core_mem_bw=30.0e9,
    miss_penalty=26.0e-9,
    net_latency=1.7e-6,
    net_bandwidth=8.5e9,
    cores_per_node=48,
)

#: Hawk node: 2× AMD EPYC 7742 (Zen 2), 2.25 GHz.
ZEN2 = MachineSpec(
    name="zen2",
    l1=CacheConfig(32 * 1024, 64, 8),
    core_flops=2.3e9,
    core_mem_bw=10.0e9,
    miss_penalty=18.0e-9,
    net_latency=1.4e-6,
    net_bandwidth=25.0e9,
    cores_per_node=128,
)

MACHINES = {m.name: m for m in (SKYLAKE, A64FX, ZEN2)}
