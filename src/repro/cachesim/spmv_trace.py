"""Access-stream generation for SpMV and preconditioner cache measurements.

Reproduces the measurement of Figures 3a/5a: L1 data-cache misses on accesses
to the multiplying vector ``x`` while computing the preconditioning operation
``Gᵀ(Gx)``, normalised by the number of stored entries of ``G``.

For a CSR SpMV traversed row-by-row, the ``x`` accesses are exactly
``x[indices]`` in storage order; each access touches the cache line of its
(local) column index.  Halo values live in the buffer appended after the
local section, matching the layout of :class:`repro.dist.matrix.LocalMatrix`.

The ``ledger=`` mode of :func:`precond_x_misses_per_rank` replays the same
stream with per-access attribution: every stored entry is classified against
the baseline FSAI pattern (:func:`entry_categories`) and every access lands
in a :class:`repro.observe.memtraffic.FreeRideLedger` as a free ride or a
new fill, with reuse distances — the line-level evidence behind the paper's
"extensions are nearly free" claim.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.cache import (
    NO_LINE,
    CacheConfig,
    SetAssociativeCache,
    simulate_misses,
)
from repro.cachesim.lines import line_ids
from repro.dist.matrix import DistMatrix, LocalMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import SparsityPattern

__all__ = [
    "X_MISSES_GAUGE",
    "x_access_lines",
    "entry_categories",
    "precond_x_misses_per_rank",
]

#: Rank-tagged gauge name for per-rank preconditioner ``x`` misses —
#: module-level constant like ``filter.load`` / ``halo.bytes_sent`` so every
#: emission site and every reader share one spelling.
X_MISSES_GAUGE = "cachesim.x_misses"

#: Entry-category codes emitted by :func:`entry_categories`, indexing
#: :data:`repro.observe.memtraffic.CATEGORIES`.
CATEGORY_BASE, CATEGORY_EXT_LOCAL, CATEGORY_EXT_HALO = 0, 1, 2


def x_access_lines(mat: CSRMatrix, line_bytes: int) -> np.ndarray:
    """Cache-line id stream of the ``x`` gathers of one CSR SpMV."""
    return line_ids(mat.indices, line_bytes)


def entry_categories(local: LocalMatrix, base_csr: CSRMatrix) -> np.ndarray:
    """Classify every stored entry of a local block against a baseline.

    Returns one int8 code per stored entry in storage order (aligned with
    the :func:`x_access_lines` stream): :data:`CATEGORY_BASE` when the
    entry's (global row, global column) is present in ``base_csr`` — the
    global baseline-pattern matrix — :data:`CATEGORY_EXT_LOCAL` for an
    extension entry on a locally-owned column and :data:`CATEGORY_EXT_HALO`
    for an extension entry on a halo column.
    """
    csr = local.csr
    col_map = np.concatenate([local.global_rows, local.ext_cols])
    out = np.where(
        csr.indices < local.n_local, CATEGORY_EXT_LOCAL, CATEGORY_EXT_HALO
    ).astype(np.int8)
    base = SparsityPattern(
        base_csr.shape, base_csr.indptr, base_csr.indices, check=False
    )
    # every stored entry's global (row, column), in storage order
    rows = np.repeat(local.global_rows, csr.row_nnz())
    out[base.contains(rows, col_map[csr.indices])] = CATEGORY_BASE
    return out


def _replay_attributed(
    lines: np.ndarray, cats: np.ndarray, config: CacheConfig, ledger, *, rank: int
) -> int:
    """Attributed replay of one rank's stream into ``ledger``; returns the
    miss count (identical to the unattributed replay's)."""
    from repro.observe.memtraffic import CATEGORIES, RankLedger

    cache = SetAssociativeCache(config)
    rank_ledger = RankLedger(rank=rank)
    filled_by: dict[int, str] = {}
    last_seen: dict[int, int] = {}
    for i, (lid, code) in enumerate(zip(lines.tolist(), cats.tolist())):
        hit, evicted = cache.access_attributed(lid)
        if evicted != NO_LINE:
            filled_by.pop(evicted, None)
        prev = last_seen.get(lid)
        last_seen[lid] = i
        category = CATEGORIES[code]
        rank_ledger.record(
            category,
            hit,
            filled_by.get(lid),
            None if prev is None else i - prev,
        )
        if not hit:
            filled_by[lid] = category
    ledger.add_rank(rank_ledger)
    return cache.misses


def precond_x_misses_per_rank(
    g: DistMatrix, gt: DistMatrix, config: CacheConfig, *, ledger=None
) -> np.ndarray:
    """Per-rank misses on ``x`` for the operation ``Gᵀ(Gx)``.

    Both SpMVs are replayed back-to-back per rank through one cache (the
    second product reuses lines the first loaded, as on real hardware).

    With a :class:`repro.observe.memtraffic.FreeRideLedger` passed as
    ``ledger``, the replay runs attributed: each stored entry is classified
    against the ledger's ``base_g`` / ``base_gt`` global baseline patterns
    and every access is recorded as a free ride or new fill with its reuse
    distance.  Miss counts are identical either way.
    """
    from repro.instrument import get_metrics, get_tracer

    if ledger is not None:
        if getattr(ledger, "base_g", None) is None or getattr(ledger, "base_gt", None) is None:
            raise ValueError(
                "ledger mode needs ledger.base_g / ledger.base_gt baseline "
                "pattern matrices for entry classification"
            )
        ledger.nnz = int(g.nnz)
        ledger.base_nnz = int(ledger.base_g.nnz)
    tracer = get_tracer()
    metrics = get_metrics()
    nparts = g.partition.nparts
    out = np.zeros(nparts, dtype=np.int64)
    with tracer.span("cachesim.precond_x_misses_per_rank", ranks=nparts):
        for p in range(nparts):
            stream = np.concatenate(
                [
                    x_access_lines(g.locals[p].csr, config.line_bytes),
                    x_access_lines(gt.locals[p].csr, config.line_bytes),
                ]
            )
            if ledger is None:
                out[p] = simulate_misses(stream, config)
            else:
                cats = np.concatenate(
                    [
                        entry_categories(g.locals[p], ledger.base_g),
                        entry_categories(gt.locals[p], ledger.base_gt),
                    ]
                )
                out[p] = _replay_attributed(stream, cats, config, ledger, rank=p)
            if metrics.enabled:
                metrics.gauge(X_MISSES_GAUGE, rank=p).set(int(out[p]))
    return out

