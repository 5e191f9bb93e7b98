"""Communication/computation overlap: split-phase halos and pipelined PCG.

Three layers are pinned here:

* the cached ``DistMatrix.split_blocks()`` partition of each local matrix
  into owned-column and halo-column halves, whose products sum to ``A·x``;
* :func:`repro.dist.spmd_pipelined_pcg`, overlapped or not, agrees with the
  BSP ``pipelined_pcg`` (the split changes row summation *order*, so
  equality is to rounding, not bitwise);
* with a modeled link latency, overlapping local SpMV with in-flight halo
  traffic strictly reduces summed ``spmd.halo.wait`` time, in modeled
  seconds — the effect the split-phase API exists to buy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_fsai, pipelined_pcg
from repro.dist import DistMatrix, DistVector, RowPartition, spmd_pipelined_pcg
from repro.instrument import tracing
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import ClockModel, CommTracker

RTOL = 1e-8


@pytest.fixture(scope="module")
def dist16():
    mat = poisson2d(16)
    part = RowPartition.from_matrix(mat, 4, seed=1)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=3), part)
    return mat, part, da, b


class TestSplitPhaseHalo:
    def test_split_blocks_partition_is_cached_and_complete(self, dist16):
        _, _, da, _ = dist16
        blocks = da.split_blocks()
        assert blocks is da.split_blocks()  # cached
        for lm, (a_ll, a_lh) in zip(da.locals, blocks):
            nnz = a_ll.nnz + (a_lh.nnz if a_lh is not None else 0)
            assert nnz == lm.csr.nnz  # every entry lands in exactly one half

    def test_split_block_products_sum_to_spmv(self, dist16):
        """``A_ll·x_local + A_lh·x_halo == A·x`` on every rank."""
        mat, _, da, b = dist16
        halos = da.schedule.update(b.parts)
        parts = []
        for p, (a_ll, a_lh) in enumerate(da.split_blocks()):
            y = a_ll.spmv(b.parts[p])
            if a_lh is not None:
                y += a_lh.spmv(halos[p])
            parts.append(y)
        split = DistVector(da.partition, parts).to_global()
        np.testing.assert_allclose(
            split, da.spmv(b).to_global(), rtol=1e-14, atol=1e-14
        )
        np.testing.assert_allclose(split, mat.spmv(b.to_global()), rtol=1e-12)

    def test_spmv_fills_preallocated_out(self, dist16):
        _, _, da, b = dist16
        out = DistVector(da.partition, [np.empty_like(p) for p in b.parts])
        assert da.spmv(b, out=out) is out
        np.testing.assert_array_equal(out.to_global(), da.spmv(b).to_global())


class TestOverlappedPipelinedPcg:
    @pytest.mark.parametrize("engine", ["events"])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_spmd_matches_bsp(self, dist16, engine, overlap):
        mat, part, da, b = dist16
        pre = build_fsai(mat, part)
        bsp = pipelined_pcg(da, b, precond=pre.apply, rtol=RTOL)
        tracker = CommTracker()
        x, iters = spmd_pipelined_pcg(
            da, b, rtol=RTOL, precond_pair=(pre.g, pre.gt),
            tracker=tracker, overlap=overlap, engine=engine,
        )
        assert iters == bsp.iterations
        rhs = b.to_global()
        rel = np.linalg.norm(rhs - mat.spmv(x.to_global())) / np.linalg.norm(rhs)
        assert rel <= 10 * RTOL
        assert tracker.total_messages > 0

    def test_overlap_preserves_message_pattern(self, dist16):
        """Overlap reorders communication, it must not change it: same
        per-edge messages and bytes either way."""
        _, part, da, b = dist16
        pre = build_fsai(da.to_global(), part)
        snaps = []
        for overlap in (False, True):
            tracker = CommTracker()
            spmd_pipelined_pcg(
                da, b, rtol=RTOL, precond_pair=(pre.g, pre.gt),
                tracker=tracker, overlap=overlap,
            )
            snaps.append(tracker.snapshot())
        assert snaps[0] == snaps[1]


class TestOverlapHidesLatency:
    @staticmethod
    def halo_waits(da, b, clock):
        """Summed ``spmd.halo.wait`` modeled seconds, blocking vs overlapped."""
        waits = {}
        for overlap in (False, True):
            with tracing() as (tracer, _):
                spmd_pipelined_pcg(
                    da, b, rtol=1e-10, max_iterations=10, overlap=overlap, clock=clock,
                )
                waits[overlap] = tracer.total_seconds("spmd.halo.wait")
        return waits

    def test_halo_wait_drops_under_modeled_latency(self):
        """With a 1 ms link, posting receives early and computing the
        owned-column SpMV inside the latency window strictly lowers summed
        ``spmd.halo.wait`` versus the blocking exchange — an inequality in
        modeled seconds, the same on every run."""
        mat = poisson2d(32)
        part = RowPartition.contiguous(mat.nrows, 4)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, seed=5), part)
        clock = ClockModel(alpha=1e-3, flop=1e-7, byte=1e-8)

        waits = self.halo_waits(da, b, clock)
        assert waits[True] > 0  # the span fires on the overlapped path too
        assert waits[True] < waits[False]
        assert self.halo_waits(da, b, clock) == waits  # to the last digit

    def test_without_a_latency_there_is_nothing_to_hide(self):
        """A zero-latency link with free compute waits for nothing."""
        mat = poisson2d(16)
        part = RowPartition.contiguous(mat.nrows, 4)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, seed=5), part)
        assert self.halo_waits(da, b, ClockModel()) == {False: 0.0, True: 0.0}
