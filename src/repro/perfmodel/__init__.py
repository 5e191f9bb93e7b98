"""Performance model: machine specs and the solver-time model.

Substitutes the paper's measured wall-clock with an explicit, documented
model (see DESIGN.md §2) fed by real measured quantities — iteration counts,
per-rank nonzeros, simulated cache misses and tracked halo traffic.
"""

from repro.perfmodel.machine import A64FX, MACHINES, SKYLAKE, ZEN2, MachineSpec
from repro.perfmodel.model import CostModel, IterationCost, estimate_solver_time

__all__ = [
    "MachineSpec",
    "SKYLAKE",
    "A64FX",
    "ZEN2",
    "MACHINES",
    "CostModel",
    "IterationCost",
    "estimate_solver_time",
]
