"""Evaluation metrics: the improvement statistics the paper's tables report.

Sign convention follows the paper: positive percentages are improvements
(decreases of iterations or time); "highest degradation" is the most
negative improvement across the matrix set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "pct_decrease",
    "pct_increase",
    "ImprovementSummary",
    "summarize_improvements",
]


def pct_decrease(baseline: float, value: float) -> float:
    """Percentage decrease of ``value`` relative to ``baseline``.

    Positive = improvement.  A zero baseline yields 0 by convention.
    """
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - value) / baseline


def pct_increase(baseline: float, value: float) -> float:
    """Percentage increase (used for FLOPs and %NNZ metrics)."""
    if baseline == 0:
        return 0.0
    return 100.0 * (value - baseline) / baseline


@dataclass(frozen=True)
class ImprovementSummary:
    """One row of a Table 3/5/6/7-style summary."""

    avg_iterations: float
    avg_time: float
    highest_improvement: float
    highest_degradation: float

    def row(self) -> list[str]:
        """The four formatted summary cells, table-ready."""
        return [
            f"{self.avg_iterations:.2f}",
            f"{self.avg_time:.2f}",
            f"{self.highest_improvement:.2f}",
            f"{self.highest_degradation:.2f}",
        ]


def summarize_improvements(
    base_iters: np.ndarray,
    base_times: np.ndarray,
    new_iters: np.ndarray,
    new_times: np.ndarray,
) -> ImprovementSummary:
    """Aggregate per-matrix results into the paper's four summary columns."""
    base_iters = np.asarray(base_iters, dtype=np.float64)
    base_times = np.asarray(base_times, dtype=np.float64)
    new_iters = np.asarray(new_iters, dtype=np.float64)
    new_times = np.asarray(new_times, dtype=np.float64)
    iter_imps = np.array(
        [pct_decrease(b, v) for b, v in zip(base_iters, new_iters)]
    )
    time_imps = np.array(
        [pct_decrease(b, v) for b, v in zip(base_times, new_times)]
    )
    return ImprovementSummary(
        avg_iterations=float(iter_imps.mean()),
        avg_time=float(time_imps.mean()),
        highest_improvement=float(time_imps.max()),
        highest_degradation=float(time_imps.min()),
    )

