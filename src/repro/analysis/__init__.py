"""Result aggregation and reporting used by the benchmark harness."""

from repro.analysis.convergence import (
    SpectralEstimate,
    convergence_rate,
    estimate_spectrum,
)
from repro.analysis.histogram import format_histogram_pair
from repro.analysis.metrics import (
    ImprovementSummary,
    pct_decrease,
    pct_increase,
    summarize_improvements,
)
from repro.analysis.tables import format_kv, format_table

__all__ = [
    "pct_decrease",
    "pct_increase",
    "ImprovementSummary",
    "summarize_improvements",
    "format_table",
    "format_kv",
    "format_histogram_pair",
    "SpectralEstimate",
    "estimate_spectrum",
    "convergence_rate",
]
