"""Unit tests for the ExtensionWorkspace sweep API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ExtensionMode,
    ExtensionWorkspace,
    FilterSpec,
    PrecondOptions,
    build_fsaie,
    build_fsaie_comm,
)
from repro.dist import RowPartition
from repro.instrument import NULL_TRACER, tracing
from repro.matgen import elasticity3d, poisson2d


@pytest.fixture(scope="module")
def setup():
    mat = poisson2d(18)
    part = RowPartition.from_matrix(mat, 3, seed=0)
    return mat, part


class TestWorkspace:
    def test_finalize_matches_direct_build(self, setup):
        mat, part = setup
        for mode, build in (
            (ExtensionMode.LOCAL, build_fsaie),
            (ExtensionMode.COMM, build_fsaie_comm),
        ):
            ws = ExtensionWorkspace("X", mat, part, mode)
            for f, dyn in ((0.01, True), (0.1, False)):
                spec = FilterSpec(f, dynamic=dyn)
                from_ws = ws.finalize(spec)
                direct = build(mat, part, PrecondOptions(filter=spec))
                assert from_ws.g.to_global().allclose(direct.g.to_global())
                assert np.allclose(from_ws.filters, direct.filters)

    def test_repeated_finalize_is_pure(self, setup):
        mat, part = setup
        ws = ExtensionWorkspace("X", mat, part, ExtensionMode.COMM)
        a = ws.finalize(FilterSpec(0.05, dynamic=True))
        b = ws.finalize(FilterSpec(0.05, dynamic=True))
        assert a.g.to_global().allclose(b.g.to_global())
        # a different filter still works after previous finalizations
        c = ws.finalize(FilterSpec(0.5, dynamic=False))
        assert c.nnz <= a.nnz

    def test_monotone_in_filter(self, setup):
        mat, part = setup
        ws = ExtensionWorkspace("X", mat, part, ExtensionMode.COMM)
        sizes = [ws.finalize(FilterSpec(f, dynamic=False)).nnz for f in (0.0, 0.05, 0.2, 1e9)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == ws.base.nnz  # everything filtered -> base pattern

    def test_workspace_exposes_stats(self, setup):
        mat, part = setup
        ws = ExtensionWorkspace("X", mat, part, ExtensionMode.COMM, line_bytes=128)
        assert ws.ext_nnz_unfiltered == ws.extension.n_added
        assert ws.g_pre.nnz == ws.base.nnz + ws.ext_nnz_unfiltered
        assert ws.base_counts.sum() == ws.base.nnz
        assert sum(len(r) for r in ws.ext_ratios_per_rank) == ws.ext_nnz_unfiltered


# elasticity3d(4,4,4) (375 rows), 2 ranks, 256 B lines, FSAIE-Comm; columns:
# rows kept / from the base factor / solved again, rows solved in all (base
# rows are solved on first need), rows through the table / search gather.
PINNED_PRECALCULATION = (0, 0, 0, 375, 375, 0)
PINNED_FINALIZE = [
    (3, 159, 213, 372, 300, 72),  # Filter 0.01
    (3, 372, 0, 213, 213, 0),  # Filter 0.2: the 213 base rows not yet solved
]


class TestIncrementalFinalize:
    """``finalize`` re-solves only the rows a filter changed."""

    def test_no_state_leaks_between_filters(self, setup):
        """A finalize after others equals the same finalize on a fresh
        workspace, bit for bit, and no base row is ever solved twice."""
        mat, part = setup
        ws = ExtensionWorkspace("X", mat, part, ExtensionMode.COMM)
        specs = [FilterSpec(f, dynamic=False) for f in (0.2, 0.01, 1e9, 0.05, 0.2)]
        base_solves = 0
        for spec in specs:
            with tracing(NULL_TRACER) as (_, metrics):
                reused = ws.finalize(spec).g.to_global()
                base_solves += metrics.value("fsai.batched_rows") - metrics.value(
                    "precond.finalize.rows_solved"
                )
            fresh = ExtensionWorkspace("X", mat, part, ExtensionMode.COMM).finalize(spec)
            fresh = fresh.g.to_global()
            assert np.array_equal(reused.indices, fresh.indices)
            assert reused.data.tobytes() == fresh.data.tobytes()
        assert base_solves == np.count_nonzero(ws._base_solved) <= mat.nrows
        assert base_solves == np.count_nonzero(ws._ext_per_row)  # 1e9 drops every extension

    def test_row_class_counters_are_pinned(self):
        """Exact counts on a fixed problem, so the reuse cannot silently stop
        firing: rows kept from the precalculation, rows copied from the base
        factor, rows solved again, and the rows each gather arm served."""
        mat = elasticity3d(4, 4, 4)
        part = RowPartition.contiguous(mat.nrows, 2)
        names = (
            "precond.finalize.rows_kept",
            "precond.finalize.rows_base",
            "precond.finalize.rows_solved",
            "fsai.batched_rows",
            "fsai.gather.table_rows",
            "fsai.gather.search_rows",
        )
        with tracing(NULL_TRACER) as (_, metrics):
            ws = ExtensionWorkspace("X", mat, part, ExtensionMode.COMM, line_bytes=256)
            seen = [tuple(metrics.value(name) or 0 for name in names)]
            for value in (0.01, 0.2):
                ws.finalize(FilterSpec(value, dynamic=True))
                seen.append(tuple(metrics.value(name) or 0 for name in names))
        steps = [tuple(b - a for a, b in zip(prev, cur)) for prev, cur in zip(seen, seen[1:])]
        assert seen[0] == PINNED_PRECALCULATION
        assert steps == PINNED_FINALIZE
        for kept, base, solved, *_ in steps:
            assert kept + base + solved == mat.nrows
