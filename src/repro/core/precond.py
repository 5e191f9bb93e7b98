"""Preconditioner construction: FSAI, FSAIE and FSAIE-Comm end to end.

This module wires the full pipelines of Algorithms 1–4:

* :func:`build_fsai` — baseline FSAI on the a-priori pattern.
* :func:`build_fsaie` — FSAI + cache-friendly extension of *local* entries
  (prior work applied per-process, the paper's FSAIE comparator).
* :func:`build_fsaie_comm` — FSAI + communication-aware extension of local
  **and** halo entries (the paper's contribution).

All three return a :class:`Preconditioner` holding the row-distributed ``G``
and ``Gᵀ`` (the preconditioning step is two SpMVs) plus the bookkeeping the
evaluation reports: %NNZ increase, per-rank filters, extension statistics.
A :class:`Preconditioner` plugs directly into the solvers:
``pcg(dA, b, precond=M)``.

All three builders share one options surface, :class:`PrecondOptions`, and
also accept its fields as direct keyword arguments::

    build_fsaie_comm(A, part, line_bytes=256, filter=FilterSpec(0.05))

The extended builders compute ``G`` twice as Alg. 2 prints it — on the full
extended pattern, then on the filtered one — but the second pass is
incremental: FSAI rows are independent systems, so
:meth:`ExtensionWorkspace.finalize` keeps the precalculated values of rows
that lost no entry, copies rows that lost every extension entry from the
base factor, and solves only the rest
(:func:`repro.core.fsai.compute_g_values` with ``rows=`` / ``out=``); the
result is the from-scratch factor of the filtered pattern to rounding
(within 1e-12: a kept row was solved in a supernode of the extended pattern,
whose rows nest differently from the filtered pattern's).

Setup phases emit ``precond.*`` spans (pattern, extension, filtering,
factor, distribute) when tracing is enabled, and ``finalize`` counts its row
classes as ``precond.finalize.rows_kept`` / ``rows_base`` / ``rows_solved``
— see :mod:`repro.instrument`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.extension import DistExtension, ExtensionMode, extend_dist_pattern
from repro.core.filtering import FilterSpec, entry_ratios, rank_filters
from repro.core.fsai import (
    FSAIOptions,
    SetupOptions,
    compute_g_values,
    fsai_pattern,
)
from repro.dist.matrix import DistMatrix
from repro.dist.partition_map import RowPartition
from repro.dist.vector import DistVector
from repro.instrument import get_metrics, get_tracer
from repro.mpisim.tracker import CommTracker
from repro.sparse.csr import CSRMatrix, _row_entry_positions
from repro.sparse.pattern import SparsityPattern

__all__ = [
    "PrecondOptions",
    "ExtensionWorkspace",
    "Preconditioner",
    "build_fsai",
    "build_fsaie",
    "build_fsaie_comm",
    "check_comm_invariance",
]


@dataclass(frozen=True)
class PrecondOptions:
    """Knobs of the preconditioner pipelines — the one options surface
    shared by :func:`build_fsai`, :func:`build_fsaie` and
    :func:`build_fsaie_comm`.

    Attributes
    ----------
    fsai:
        Baseline FSAI options (pattern level, thresholds); a
        :class:`repro.core.fsai.FSAIOptions` sub-config.
    line_bytes:
        Cache line size driving the extension (64 B Skylake/Zen 2, 256 B
        A64FX).
    filter:
        Extension filtering specification (value, static/dynamic); a
        :class:`repro.core.filtering.FilterSpec` sub-config.
    setup:
        Runtime of the value computation (compute dtype); a
        :class:`repro.core.fsai.SetupOptions` sub-config.
    """

    fsai: FSAIOptions = FSAIOptions()
    line_bytes: int = 64
    filter: FilterSpec = FilterSpec()
    setup: SetupOptions = SetupOptions()

    def __post_init__(self):
        if not isinstance(self.filter, FilterSpec):
            raise TypeError(
                f"filter must be a FilterSpec, got {type(self.filter).__name__}"
            )


def _coerce_options(options: PrecondOptions | None, overrides: dict) -> PrecondOptions:
    """Resolve the ``(options, **overrides)`` surface of the builders."""
    if options is None:
        return PrecondOptions(**overrides)
    if overrides:
        raise TypeError(
            "pass either a PrecondOptions object or keyword overrides, not both: "
            f"{sorted(overrides)}"
        )
    return options


@dataclass
class Preconditioner:
    """A factorized approximate inverse ready to apply inside CG.

    Pass it directly to the solvers — ``pcg(dA, b, precond=M)`` — or call
    :meth:`apply` yourself.
    """

    name: str
    g: DistMatrix
    gt: DistMatrix
    base_nnz: int
    nnz: int
    filters: np.ndarray
    extension: DistExtension | None = None
    ext_nnz_unfiltered: int = 0

    def apply(
        self,
        r: DistVector,
        tracker: CommTracker | None = None,
        *,
        out: DistVector | None = None,
        workspace=None,
    ) -> DistVector:
        """Preconditioning step ``z = Gᵀ(G·r)`` — two distributed SpMVs.

        With a :class:`~repro.kernels.workspace.SolverWorkspace` the products
        run fused through cached kernel plans: ``G·r`` lands in one reused
        intermediate buffer, ``Gᵀ·(G·r)`` directly in ``out`` — zero
        allocations once the workspace is warm.  ``out`` (optional) receives
        the result in-place either way.
        """
        if workspace is not None:
            tmp = workspace.vector(f"precond.gy.{id(self)}")
            workspace.spmv(self.g, r, out=tmp, tracker=tracker)
            if out is None:
                out = workspace.vector(f"precond.z.{id(self)}")
            return workspace.spmv(self.gt, tmp, out=out, tracker=tracker)
        z = self.gt.spmv(self.g.spmv(r, tracker), tracker)
        if out is not None:
            return out.copy_from(z)
        return z

    # metrics the paper's tables report -------------------------------
    @property
    def nnz_increase_percent(self) -> float:
        """%NNZ — added lower-triangular entries relative to the FSAI pattern."""
        if self.base_nnz == 0:
            return 0.0
        return 100.0 * (self.nnz - self.base_nnz) / self.base_nnz

    def nnz_per_rank(self) -> np.ndarray:
        """Stored entries of ``G`` per rank (load-balance metric)."""
        return self.g.nnz_per_rank()

    def flops_per_apply(self) -> int:
        """FLOPs of one ``Gᵀ(Gx)`` application (2 per entry per product)."""
        return 2 * (self.g.nnz + self.gt.nnz)

    def __repr__(self) -> str:
        return (
            f"Preconditioner({self.name}, nnz={self.nnz}, "
            f"+{self.nnz_increase_percent:.2f}% vs FSAI)"
        )


# ----------------------------------------------------------------------
def build_fsai(
    mat: CSRMatrix,
    partition: RowPartition,
    options: PrecondOptions | None = None,
    **overrides,
) -> Preconditioner:
    """Baseline FSAI preconditioner (Alg. 1), distributed by rows.

    ``options`` may be a :class:`PrecondOptions`; alternatively pass its
    fields as keyword arguments (``build_fsai(A, part, fsai=FSAIOptions(level=2))``).
    The factor values are computed as batched row-group solves in the dtype
    selected by ``options.setup`` — see
    :func:`repro.core.fsai.compute_g_values`.
    """
    options = _coerce_options(options, overrides)
    tracer = get_tracer()
    with tracer.span("precond.build", method="FSAI"):
        with tracer.span("precond.pattern"):
            pattern = fsai_pattern(mat, options.fsai)
        with tracer.span("precond.factor"):
            g = compute_g_values(mat, pattern, setup=options.setup)
        pre = _distribute("FSAI", g, partition, base_nnz=pattern.nnz,
                          filters=np.zeros(partition.nparts))
    _record_build_metrics(pre)
    return pre


def build_fsaie(
    mat: CSRMatrix,
    partition: RowPartition,
    options: PrecondOptions | None = None,
    **overrides,
) -> Preconditioner:
    """FSAIE: cache-friendly extension of local entries only (Alg. 2).

    Shares the :class:`PrecondOptions` surface (including the ``setup``
    sub-config) of :func:`build_fsai`.
    """
    options = _coerce_options(options, overrides)
    return _build_extended("FSAIE", mat, partition, options, ExtensionMode.LOCAL)


def build_fsaie_comm(
    mat: CSRMatrix,
    partition: RowPartition,
    options: PrecondOptions | None = None,
    **overrides,
) -> Preconditioner:
    """FSAIE-Comm: communication-aware local + halo extension (Alg. 3).

    Shares the :class:`PrecondOptions` surface (including the ``setup``
    sub-config) of :func:`build_fsai`.
    """
    options = _coerce_options(options, overrides)
    return _build_extended("FSAIE-Comm", mat, partition, options, ExtensionMode.COMM)


class ExtensionWorkspace:
    """The filter-independent stages of FSAIE / FSAIE-Comm, precomputed once.

    Building the extension and the unfiltered factor (Alg. 2 steps 1–4)
    dominates setup cost but does not depend on the ``Filter`` value.  A
    workspace caches those stages so parameter sweeps (the paper evaluates
    4 filter values × 2 strategies per matrix) only pay step 5 per
    configuration via :meth:`finalize`: drop the filtered entries, then
    re-solve the rows whose pattern is neither their precalculated row nor
    their base-FSAI row.  The base-FSAI rows a ``finalize`` needs are solved
    once per workspace and kept — the only state ``finalize`` writes, and a
    value once written never changes, so any order of calls gives the same
    factors.
    """

    def __init__(
        self,
        name: str,
        mat: CSRMatrix,
        partition: RowPartition,
        mode: ExtensionMode,
        *,
        line_bytes: int = 64,
        fsai: FSAIOptions = FSAIOptions(),
        setup: SetupOptions | None = None,
    ):
        self.name = name
        self.mat = mat
        self.partition = partition
        self.mode = mode
        self.line_bytes = line_bytes
        self.setup = setup if setup is not None else SetupOptions()
        tracer = get_tracer()
        with tracer.span("precond.workspace", method=name, mode=mode.name):
            with tracer.span("precond.pattern"):
                self.base = fsai_pattern(mat, fsai)

            # distribute the *pattern* to obtain the local x-vector layout
            # whose cache lines the extension exploits (values are irrelevant
            # here)
            with tracer.span("precond.extension", line_bytes=line_bytes):
                dist_pattern = DistMatrix.from_global(self.base.to_csr(), partition)
                self.extension = extend_dist_pattern(dist_pattern, line_bytes, mode)
                self.ext_nnz_unfiltered = self.extension.n_added
                s_ext, added = _union_with_entries(self.base, self.extension.rows,
                                                   self.extension.cols)

            # Alg. 2 step 4: precalculate G on the full extended pattern
            with tracer.span("precond.factor", stage="precalculate"):
                self.g_pre = compute_g_values(mat, s_ext, setup=self.setup)
            self.ratios = entry_ratios(self.g_pre)
            # the extension entries: where the union put the additions
            self.ext_mask = np.zeros(self.g_pre.nnz, dtype=bool)
            self.ext_mask[added] = True
            self.entry_owner = partition.owner[
                np.repeat(np.arange(self.g_pre.nrows, dtype=np.int64), self.g_pre.row_nnz())
            ]
            ext_owner = self.entry_owner[self.ext_mask]
            ext_counts = np.bincount(ext_owner, minlength=partition.nparts)
            self.base_counts = (
                np.bincount(self.entry_owner, minlength=partition.nparts) - ext_counts
            )
            # every rank's extension ratios, rank after rank
            self._ext_ratios = self.ratios[self.ext_mask][np.argsort(ext_owner, kind="stable")]
            self._ext_offsets = np.zeros(partition.nparts + 1, dtype=np.int64)
            np.cumsum(ext_counts, out=self._ext_offsets[1:])
            # what finalize's row classes need that no filter changes: the
            # extension entries of every row, and the base-FSAI values of the
            # rows some finalize has already needed (solved on first need)
            self._ext_per_row = self.g_pre.row_nnz() - self.base.row_nnz()
            self._base_values = np.empty(self.base.nnz, dtype=np.float64)
            self._base_solved = np.zeros(mat.nrows, dtype=bool)

    @property
    def ext_ratios_per_rank(self) -> list[np.ndarray]:
        """Each rank's extension-entry ratios (views of one array)."""
        bounds = self._ext_offsets.tolist()
        return [self._ext_ratios[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def finalize(self, filter_spec: FilterSpec) -> Preconditioner:
        """Filter extension entries and recompute ``G`` (Alg. 2 step 5)."""
        tracer = get_tracer()
        with tracer.span("precond.build", method=self.name):
            with tracer.span("precond.filtering", dynamic=filter_spec.dynamic,
                             value=filter_spec.value):
                filters = rank_filters(
                    self.base_counts, self._ext_ratios, self._ext_offsets, filter_spec
                )
                drop = self.ext_mask & (self.ratios <= filters[self.entry_owner])
                filtered = self.g_pre.drop_entries(drop)
            with tracer.span("precond.factor", stage="recompute"):
                g_final = self._refactor(filtered)
            pre = _distribute(
                self.name, g_final, self.partition, base_nnz=self.base.nnz,
                filters=filters,
            )
            pre.extension = self.extension
            pre.ext_nnz_unfiltered = self.ext_nnz_unfiltered
        _record_build_metrics(pre)
        return pre

    def _refactor(self, filtered: CSRMatrix) -> CSRMatrix:
        """``G`` on the filtered pattern, solving only the rows that need it.

        ``filtered`` is ``g_pre`` without the dropped extension entries and
        still carries the precalculated values.  FSAI rows are independent
        systems, so a row that lost nothing keeps those values, a row that
        lost every extension entry is its base-FSAI row (solved the first
        time any ``finalize`` of this workspace needs it), and only a row
        that lost some is solved again — each what solving the whole
        filtered pattern from scratch returns, to rounding (a row's last bits
        depend on the rows it nests with, which filtering changes).
        """
        dropped = self.g_pre.row_nnz() - filtered.row_nnz()
        lost_all = dropped == self._ext_per_row
        to_base = np.flatnonzero((dropped > 0) & lost_all)
        mixed = np.flatnonzero((dropped > 0) & ~lost_all)
        if to_base.size:
            missing = to_base[~self._base_solved[to_base]]
            compute_g_values(
                self.mat, self.base, setup=self.setup,
                rows=missing, out=self._base_values,
            )
            self._base_solved[missing] = True
            filtered.data[_row_entry_positions(filtered.indptr, to_base)] = (
                self._base_values[_row_entry_positions(self.base.indptr, to_base)]
            )
        metrics = get_metrics()
        if metrics.enabled:
            kept = dropped.size - to_base.size - mixed.size
            metrics.counter("precond.finalize.rows_kept").inc(kept)
            metrics.counter("precond.finalize.rows_base").inc(to_base.size)
            metrics.counter("precond.finalize.rows_solved").inc(mixed.size)
        return compute_g_values(
            self.mat, SparsityPattern.from_csr(filtered), setup=self.setup,
            rows=mixed, out=filtered.data,
        )


def _build_extended(
    name: str,
    mat: CSRMatrix,
    partition: RowPartition,
    options: PrecondOptions,
    mode: ExtensionMode,
) -> Preconditioner:
    workspace = ExtensionWorkspace(
        name, mat, partition, mode, line_bytes=options.line_bytes, fsai=options.fsai,
        setup=options.setup,
    )
    return workspace.finalize(options.filter)


def _record_build_metrics(pre: Preconditioner) -> None:
    """Publish the build outcome the evaluation tables report."""
    metrics = get_metrics()
    if not metrics.enabled:
        return
    metrics.gauge("precond.nnz", method=pre.name).set(pre.nnz)
    metrics.gauge("precond.nnz_increase_percent", method=pre.name).set(
        pre.nnz_increase_percent
    )
    for rank, nnz in enumerate(pre.nnz_per_rank()):
        metrics.gauge("precond.nnz_rank", method=pre.name, rank=rank).set(int(nnz))


def _union_with_entries(
    base: SparsityPattern, rows: np.ndarray, cols: np.ndarray
) -> tuple[SparsityPattern, np.ndarray]:
    """A pattern with explicit (row, col) additions, each absent from it and
    listed once (as an extension adds them), and the additions' positions
    among its entries: the sorted additions merge into the sorted entries,
    the ``k``-th of them ``k`` places after its insertion point."""
    if rows.size == 0:
        return base, np.empty(0, dtype=np.int64)
    n = base.ncols
    keys = np.sort(rows * n + cols)
    at = np.searchsorted(base._keys(), keys)
    indices = np.insert(base.indices, at, keys % n)
    indptr = base.indptr.copy()
    indptr[1:] += np.cumsum(np.bincount(keys // n, minlength=base.nrows))
    return (SparsityPattern(base.shape, indptr, indices, check=False),
            at + np.arange(keys.size))


def _distribute(
    name: str,
    g: CSRMatrix,
    partition: RowPartition,
    *,
    base_nnz: int,
    filters: np.ndarray,
) -> Preconditioner:
    with get_tracer().span("precond.distribute"):
        dist_g = DistMatrix.from_global(g, partition)
        dist_gt = DistMatrix.from_global(g.transpose(), partition)
        return Preconditioner(
            name=name,
            g=dist_g,
            gt=dist_gt,
            base_nnz=base_nnz,
            nnz=g.nnz,
            filters=np.asarray(filters, dtype=np.float64),
        )


def check_comm_invariance(base: Preconditioner, extended: Preconditioner) -> bool:
    """The paper's core guarantee: the extended preconditioner exchanges
    exactly the same halo values as the baseline, for both ``G`` and ``Gᵀ``.
    """
    return (
        extended.g.schedule == base.g.schedule
        and extended.gt.schedule == base.gt.schedule
    )
