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

__all__ = [
    "FilterSpec",
    "entry_ratios",
    "compute_dynamic_filters",
    "rank_filters",
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


def compute_dynamic_filters(
    base_counts: np.ndarray,
    ext_ratios_per_rank: list[np.ndarray],
    spec: FilterSpec,
) -> np.ndarray:
    """Per-rank filter values; static specs return the uniform value."""
    offsets = np.zeros(len(ext_ratios_per_rank) + 1, dtype=np.int64)
    np.cumsum([r.size for r in ext_ratios_per_rank], out=offsets[1:])
    ratios = np.concatenate([np.empty(0), *ext_ratios_per_rank])
    return rank_filters(np.asarray(base_counts), ratios, offsets, spec)


def rank_filters(
    base_counts: np.ndarray, ratios: np.ndarray, offsets: np.ndarray, spec: FilterSpec
) -> np.ndarray:
    """:func:`compute_dynamic_filters` on every rank's extension ratios in
    one array, rank ``p``'s at ``offsets[p] : offsets[p + 1]``.

    Alg. 4 adjusts each rank's filter until its load enters the band.  The
    global mean kept-entry count under the initial filter is computed once
    (the algorithm's single ``MPI_Allreduce``).  Only overloaded ranks
    (load above the band) adjust: doubling the filter while the load is
    above 1, halving back towards the last value below otherwise, until the
    load is in the band, every extension entry is filtered, or
    ``spec.max_bisection`` steps have run.  The filter never drops below
    ``spec.value``: base entries dominate underloaded ranks and cannot be
    recovered by filtering.  Every rank bisects at once, each step one pass
    over the ratios, with each rank's arithmetic that of a rank alone.

    When metrics are enabled (:func:`repro.instrument.get_metrics`), each
    rank's bisection is recorded: a ``filter.bisection.load`` histogram (the
    load at every step, initial evaluation included), a
    ``filter.bisection.steps`` counter, and final ``filter.value`` /
    ``filter.load`` gauges — all tagged ``rank=r``.
    """
    nparts = offsets.size - 1
    filters = np.full(nparts, spec.value, dtype=np.float64)
    if not spec.dynamic or nparts == 1:
        return filters
    base_counts = np.asarray(base_counts).astype(np.int64)
    sizes = np.diff(offsets)
    counts = base_counts + _segment_counts(ratios > spec.value, sizes)
    average = float(counts.mean())
    lo_band, hi_band = spec.band
    imb = counts / average if average > 0 else np.zeros(nparts)
    prev, loads = filters.copy(), [imb.copy()]  # the load of every rank at every step
    active = np.flatnonzero(imb > hi_band)
    # the bisecting ranks' ratios, shrunk as ranks leave; a rank has nothing
    # left to drop once no ratio exceeds its filter and none is NaN (a NaN
    # ratio is neither kept nor dropped)
    part = ratios[_segment_positions(offsets[active], sizes[active])]
    nans = _segment_counts(np.isnan(part), sizes[active])
    for _ in range(spec.max_bisection):
        if not active.size:
            break
        up, down = active[imb[active] > 1.0], active[imb[active] <= 1.0]
        prev[up] = filters[up]
        filters[up] = np.where(filters[up] > 0, filters[up] * 2, 1e-8)
        filters[down] = (filters[down] + prev[down]) / 2.0
        above = _segment_counts(part > np.repeat(filters[active], sizes[active]), sizes[active])
        loads.append(np.full(nparts, np.nan))
        loads[-1][active] = imb[active] = (base_counts[active] + above) / average
        now = imb[active]
        done = ((lo_band <= now) & (now <= hi_band)) | ((now > hi_band) & (above == 0)
                                                        & (nans == 0))
        if done.any():
            part = part[np.repeat(~done, sizes[active])]
            active, nans = active[~done], nans[~done]
    metrics = get_metrics()
    if metrics.enabled:
        history = np.array(loads)
        final = None
        if average > 0:
            kept = base_counts + _segment_counts(ratios > np.repeat(filters, sizes), sizes)
            final = (kept / average).tolist()
        for r in range(nparts):
            hist = metrics.histogram("filter.bisection.load", rank=r)
            steps = metrics.counter("filter.bisection.steps", rank=r)
            if final is None:
                continue
            trajectory = history[~np.isnan(history[:, r]), r].tolist()
            for load in trajectory:
                hist.observe(load)
            steps.inc(len(trajectory) - 1)
            metrics.gauge("filter.value", rank=r).set(float(filters[r]))
            metrics.gauge("filter.load", rank=r).set(final[r])
    return filters


def _segment_counts(mask: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """How many entries are set in each run of ``mask`` (runs of ``sizes``,
    in order)."""
    counts = np.zeros(sizes.size, dtype=np.int64)
    nonempty = np.flatnonzero(sizes)
    if nonempty.size:
        counts[nonempty] = np.add.reduceat(mask, (np.cumsum(sizes) - sizes)[nonempty],
                                           dtype=np.int64)
    return counts


def _segment_positions(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] : starts[i] + sizes[i]``, run after run."""
    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


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
