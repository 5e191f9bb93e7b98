"""Static and dynamic filtering of pattern-extension entries (§4, Alg. 4).

After the extended factor ``G_ext`` is precalculated (Alg. 2 step 4), small
*extension* entries are filtered out; base-pattern entries are never dropped.
The magnitude test is scale independent (relative to the diagonal, as in
Chow 2001):   drop (i, j)  iff  |g_ij| ≤ filter · sqrt(|g_ii · g_jj|).

*Static* filtering applies one ``Filter`` value on every rank.  *Dynamic*
filtering (this paper's §4) raises the filter on overloaded ranks by
bisection until each rank's stored-entry count is within a tolerance band of
the global average, removing the inter-process imbalance the per-rank
extensions can introduce.

Note on Alg. 4 as printed: its loop guard reads ``while imb > 1.05 AND
imb < 0.95`` which is vacuously false; the surrounding text makes the intent
clear — iterate while the rank's load is *outside* the tolerated band.  We
implement that reading, with an iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.instrument import get_metrics
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import SparsityPattern

__all__ = [
    "FilterSpec",
    "entry_ratios",
    "extension_entry_mask",
    "static_filter_counts",
    "dynamic_filter_for_rank",
    "compute_dynamic_filters",
    "imbalance_index",
    "relative_load",
]


@dataclass(frozen=True)
class FilterSpec:
    """How extension entries are filtered.

    Attributes
    ----------
    value:
        The ``Filter`` drop tolerance (the paper sweeps 0.01/0.05/0.1/0.2).
    dynamic:
        Apply Alg. 4's per-rank adjustment on top of ``value``.
    band:
        Tolerated relative-load band around 1.0 (paper: 0.95–1.05).
    max_bisection:
        Iteration cap of the bisection (paper: "setting a maximum amount of
        iterations").
    """

    value: float = 0.01
    dynamic: bool = True
    band: tuple[float, float] = (0.95, 1.05)
    max_bisection: int = 30

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("Filter value must be non-negative")
        lo, hi = self.band
        if not (0 < lo <= 1 <= hi):
            raise ValueError("band must bracket 1.0")


def entry_ratios(g: CSRMatrix) -> np.ndarray:
    """Scale-independent magnitude ``|g_ij| / sqrt(|g_ii·g_jj|)`` per entry.

    An entry is dropped by filter ``f`` iff its ratio is ``<= f``.
    """
    if g.nrows != g.ncols:
        raise ShapeError("entry_ratios expects a square factor")
    diag = np.abs(g.diagonal())
    diag[diag == 0.0] = 1.0
    rows = np.repeat(np.arange(g.nrows, dtype=np.int64), g.row_nnz())
    scale = np.sqrt(diag[rows] * diag[g.indices])
    return np.abs(g.data) / scale


def extension_entry_mask(g: CSRMatrix, base: SparsityPattern) -> np.ndarray:
    """Boolean mask over ``g``'s entries: True where the entry is *extension*
    (absent from the base pattern) and therefore filterable."""
    if g.shape != base.shape:
        raise ShapeError("factor and base pattern shapes differ")
    rows = np.repeat(np.arange(g.nrows, dtype=np.int64), g.row_nnz())
    return ~base.contains(rows, g.indices)


def _count_kept(base_count: int, ext_ratios: np.ndarray, filt: float) -> int:
    """Entries a rank keeps under ``filt``: base plus surviving extension."""
    return base_count + int(np.count_nonzero(ext_ratios > filt))


def static_filter_counts(
    base_counts: np.ndarray, ext_ratios_per_rank: list[np.ndarray], filt: float
) -> np.ndarray:
    """Per-rank kept-entry counts under one global filter value."""
    return np.array(
        [
            _count_kept(int(b), r, filt)
            for b, r in zip(base_counts, ext_ratios_per_rank)
        ],
        dtype=np.int64,
    )


def dynamic_filter_for_rank(
    base_count: int,
    ext_ratios: np.ndarray,
    initial_filter: float,
    average_count: float,
    *,
    band: tuple[float, float] = (0.95, 1.05),
    max_bisection: int = 30,
    monitor=None,
) -> float:
    """Alg. 4 for one rank: adjust the filter until load enters the band.

    ``average_count`` is the global mean kept-entry count computed once with
    the initial filter (the single ``MPI_Allreduce`` of the algorithm).  Only
    overloaded ranks (load above the band) adjust; the filter never drops
    below ``initial_filter`` because base entries dominate underloaded ranks
    and cannot be recovered by filtering.

    ``monitor``, when given, is called as ``monitor(step, filter, load)`` at
    the initial evaluation (``step=0``) and after every bisection step —
    :func:`compute_dynamic_filters` records these as the rank's bisection
    trajectory.
    """
    lo_band, hi_band = band
    if average_count <= 0:
        return initial_filter
    imb = _count_kept(base_count, ext_ratios, initial_filter) / average_count
    if monitor is not None:
        monitor(0, initial_filter, imb)
    if imb <= hi_band:
        return initial_filter
    prev_filter = initial_filter
    new_filter = initial_filter
    for step in range(1, max_bisection + 1):
        if imb > 1.0:
            prev_filter = new_filter
            new_filter = new_filter * 2 if new_filter > 0 else 1e-8
        else:
            new_filter = (new_filter + prev_filter) / 2.0
        imb = _count_kept(base_count, ext_ratios, new_filter) / average_count
        if monitor is not None:
            monitor(step, new_filter, imb)
        if lo_band <= imb <= hi_band:
            break
        # all extension entries filtered and still overloaded: nothing more
        # filtering can do, the base pattern itself is imbalanced
        if imb > hi_band and np.all(ext_ratios <= new_filter):
            break
    return new_filter


def compute_dynamic_filters(
    base_counts: np.ndarray,
    ext_ratios_per_rank: list[np.ndarray],
    spec: FilterSpec,
) -> np.ndarray:
    """Per-rank filter values; static specs return the uniform value.

    When metrics are enabled (:func:`repro.instrument.get_metrics`), each
    rank's bisection is recorded: a
    ``filter.bisection.load`` histogram (the load at every step, initial
    evaluation included), a ``filter.bisection.steps`` counter, and final
    ``filter.value`` / ``filter.load`` gauges — all tagged ``rank=r``.
    """
    nparts = len(ext_ratios_per_rank)
    if not spec.dynamic or nparts == 1:
        return np.full(nparts, spec.value, dtype=np.float64)
    counts = static_filter_counts(base_counts, ext_ratios_per_rank, spec.value)
    average = float(counts.mean())
    metrics = get_metrics()
    filters = np.empty(nparts, dtype=np.float64)
    for rank, (b, r) in enumerate(zip(base_counts, ext_ratios_per_rank)):
        if metrics.enabled:
            load_hist = metrics.histogram("filter.bisection.load", rank=rank)
            step_counter = metrics.counter("filter.bisection.steps", rank=rank)

            def monitor(step, filt, load, _hist=load_hist, _steps=step_counter):
                _hist.observe(load)
                if step > 0:
                    _steps.inc()
        else:
            monitor = None
        filters[rank] = dynamic_filter_for_rank(
            int(b),
            r,
            spec.value,
            average,
            band=spec.band,
            max_bisection=spec.max_bisection,
            monitor=monitor,
        )
        if metrics.enabled and average > 0:
            metrics.gauge("filter.value", rank=rank).set(float(filters[rank]))
            metrics.gauge("filter.load", rank=rank).set(
                _count_kept(int(b), r, float(filters[rank])) / average
            )
    return filters


# ----------------------------------------------------------------------
# load-balance metrics (§5.3.3)
# ----------------------------------------------------------------------
def imbalance_index(nnz_per_rank: np.ndarray) -> float:
    """Average over maximum entries per rank; 1.0 means perfectly balanced."""
    arr = np.asarray(nnz_per_rank, dtype=np.float64)
    if arr.size == 0 or arr.max() == 0:
        return 1.0
    return float(arr.mean() / arr.max())


def relative_load(nnz_per_rank: np.ndarray) -> np.ndarray:
    """Per-rank entries divided by the average (Alg. 4's ``imb``)."""
    arr = np.asarray(nnz_per_rank, dtype=np.float64)
    mean = arr.mean() if arr.size else 0.0
    if mean == 0:
        return np.ones_like(arr)
    return arr / mean
