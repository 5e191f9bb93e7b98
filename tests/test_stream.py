"""Streaming telemetry: histograms, sampling, tree aggregation."""

from __future__ import annotations

import json

import pytest

from repro.dist import DistMatrix, DistVector, RowPartition
from repro.dist.spmd import spmd_pipelined_pcg
from repro.matgen import paper_rhs, poisson2d
from repro.mpisim import CommTracker
from repro.observe import (
    ClusterTelemetry,
    StreamingHistogram,
    TelemetryConfig,
    sampled_ranks,
)
from repro.observe.stream import RankTelemetry, aggregate_telemetry
from repro.perfmodel import SKYLAKE


# ---------------------------------------------------------------------------
# StreamingHistogram
# ---------------------------------------------------------------------------
class TestStreamingHistogram:
    def test_bucket_bounds_are_powers_of_base(self):
        h = StreamingHistogram(lo=1.0, base=2.0)
        h.observe(3.0)  # (2, 4] -> bound 4
        h.observe(4.0)  # exactly on the bound stays in (2, 4]
        h.observe(5.0)  # (4, 8] -> bound 8
        assert h.buckets == {4.0: 2, 8.0: 1}
        assert h.count == 3
        assert h.sum == pytest.approx(12.0)

    def test_tiny_values_clamp_to_lowest_bucket(self):
        h = StreamingHistogram(lo=1e-9)
        h.observe(0.0)
        h.observe(1e-12)
        assert h.count == 2
        assert all(b <= 1e-9 for b in h.buckets)

    def test_merge_is_exact_on_shared_grid(self):
        a, b = StreamingHistogram(), StreamingHistogram()
        for v in (1e-6, 2e-6, 1e-3):
            a.observe(v)
        for v in (1e-6, 0.5):
            b.observe(v)
        a.merge(b)
        assert a.count == 5
        assert a.sum == pytest.approx(1e-6 + 2e-6 + 1e-3 + 1e-6 + 0.5)
        assert a.min == pytest.approx(1e-6)
        assert a.max == pytest.approx(0.5)

    def test_merge_rejects_different_grid(self):
        a = StreamingHistogram(base=2.0)
        b = StreamingHistogram(base=4.0)
        with pytest.raises(Exception):
            a.merge(b)

    def test_percentile_overestimates_within_one_bucket(self):
        h = StreamingHistogram(lo=1.0, base=2.0)
        for v in (1.5,) * 99 + (100.0,):
            h.observe(v)
        p50 = h.percentile(50)
        assert 1.5 <= p50 <= 2.0  # bucket upper bound
        assert h.percentile(100) >= 100.0 / 2  # within one bucket of the max

    def test_empty_histogram(self):
        h = StreamingHistogram()
        assert h.count == 0
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0

    def test_dict_round_trip(self):
        h = StreamingHistogram()
        for v in (1e-6, 3e-4, 0.25, 7.0):
            h.observe(v)
        clone = StreamingHistogram.from_dict(json.loads(json.dumps(h.to_dict())))
        assert clone.count == h.count
        assert clone.sum == pytest.approx(h.sum)
        assert clone.buckets == h.buckets

    def test_bounded_memory(self):
        h = StreamingHistogram()
        for i in range(100_000):
            h.observe(1e-9 * (1 + (i % 997)))
        # 100k observations spanning 3 decades fit in ~a dozen log buckets
        assert len(h.buckets) < 32


# ---------------------------------------------------------------------------
# sampling policies
# ---------------------------------------------------------------------------
class TestSampledRanks:
    def test_policies_are_deterministic_and_bounded(self):
        for policy, size, expect_len in (
            (4, 1024, 4),
            ("first:3", 1024, 3),
            ("sqrt", 1024, 32),
            ("all", 16, 16),
            (None, 1024, 0),
            ("none", 1024, 0),
            (0, 1024, 0),
        ):
            got = sampled_ranks(size, policy)
            assert got == sampled_ranks(size, policy)  # deterministic
            assert len(got) == expect_len
            assert all(0 <= r < size for r in got)

    def test_int_policy_spreads_over_the_range(self):
        got = sorted(sampled_ranks(1024, 4))
        assert got == [0, 256, 512, 768]

    def test_oversized_policy_clamps_to_size(self):
        assert sampled_ranks(4, 8) == frozenset({0, 1, 2, 3})

    def test_stride_policy(self):
        assert sorted(sampled_ranks(10, "stride:4")) == [0, 4, 8]


# ---------------------------------------------------------------------------
# per-rank telemetry and cluster merge
# ---------------------------------------------------------------------------
def _rank(rank, wait, compute, *, sampled=False):
    t = RankTelemetry(rank, sampled=sampled)
    t.observe("wait.halo", wait)
    t.observe("compute", compute)
    t.hist("message_bytes").observe(1024)
    t.counters.update(messages=1, bytes=1024)
    return t


class TestClusterTelemetry:
    def test_span_recording_only_on_sampled_ranks(self):
        plain = _rank(0, 0.1, 0.2)
        probed = _rank(1, 0.1, 0.2, sampled=True)
        assert plain.spans == []
        assert len(probed.spans) == 2  # wait + compute

    def test_span_cap_counts_overflow(self):
        t = RankTelemetry(0, sampled=True, max_spans=4)
        for _ in range(10):
            t.observe("compute", 1e-3)
        assert len(t.spans) == 4
        assert t.spans_dropped == 6

    def test_merge_is_order_independent(self):
        def build(order):
            acc = ClusterTelemetry.from_rank(_rank(order[0], 0.1 * order[0], 0.2))
            for r in order[1:]:
                acc.merge(ClusterTelemetry.from_rank(_rank(r, 0.1 * r, 0.2)))
            return acc

        a = build([1, 2, 3, 4])
        b = build([4, 2, 1, 3])
        assert a.ranks == b.ranks == 4
        assert a.phase_seconds() == pytest.approx(b.phase_seconds())
        assert sorted(a.top_wait) == sorted(b.top_wait)
        assert a.counters == b.counters

    def test_straggler_detection_flags_outlier(self):
        acc = ClusterTelemetry.from_rank(_rank(0, 0.010, 0.1))
        for r in range(1, 16):
            acc.merge(ClusterTelemetry.from_rank(_rank(r, 0.010, 0.1)))
        acc.merge(ClusterTelemetry.from_rank(_rank(16, 5.0, 0.1)))
        stragglers = acc.straggler_ranks()
        assert [s["rank"] for s in stragglers] == [16]
        assert stragglers[0]["wait_seconds"] == pytest.approx(5.0)
        assert stragglers[0]["z"] > 3.5

    def test_no_stragglers_on_uniform_waits(self):
        acc = ClusterTelemetry.from_rank(_rank(0, 0.010, 0.1))
        for r in range(1, 32):
            acc.merge(ClusterTelemetry.from_rank(_rank(r, 0.010, 0.1)))
        assert acc.straggler_ranks() == []

    def test_payload_is_bounded_and_serialisable(self):
        acc = ClusterTelemetry.from_rank(_rank(0, 0.01, 0.1, sampled=True))
        for r in range(1, 512):
            acc.merge(ClusterTelemetry.from_rank(_rank(r, 0.01 + 1e-5 * r, 0.1)))
        small = ClusterTelemetry.from_rank(_rank(0, 0.01, 0.1, sampled=True))
        for r in range(1, 32):
            small.merge(ClusterTelemetry.from_rank(_rank(r, 0.01 + 1e-5 * r, 0.1)))
        # 16x the ranks must not cost anywhere near 16x the payload
        assert acc.payload_bytes() < 4 * small.payload_bytes()
        payload = acc.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert acc.payload_bytes() == len(json.dumps(payload, separators=(",", ":")))
        assert payload["ranks"] == 512
        assert len(payload["top_wait"]) == acc.top_k  # bounded, worst waits first
        assert payload["top_wait"][0] == [511, pytest.approx(0.01 + 1e-5 * 511)]
        assert list(payload["sampled"]) == ["0"]  # only the sampled rank's spans


# ---------------------------------------------------------------------------
# tree aggregation, and telemetered solves
# ---------------------------------------------------------------------------
class TestInBandAggregation:
    def test_binomial_tree_reaches_rank_zero(self):
        size = 13  # non-power-of-two exercises the partial tree
        sampled = sampled_ranks(size, 4)
        ranks = []
        for r in range(size):
            t = RankTelemetry(r, sampled=r in sampled)
            t.observe("wait.halo", 0.001 * (r + 1))
            t.observe("compute", 0.01)
            ranks.append(t)
        cluster = aggregate_telemetry(ranks)
        assert cluster.ranks == size
        assert cluster.hists["wait.halo"].count == size
        assert cluster.phase_seconds()["halo"] == pytest.approx(
            sum(0.001 * (r + 1) for r in range(size)), rel=1e-9
        )
        assert set(cluster.sampled) == set(sampled_ranks(size, 4))

    def test_telemetry_traffic_is_tagged_not_p2p(self):
        tracker = CommTracker()
        ranks = [RankTelemetry(r, sampled=r in (0, 4)) for r in range(8)]
        for t in ranks:
            t.observe("compute", 0.01)
        aggregate_telemetry(ranks, tracker=tracker)
        assert tracker.total_messages == 0  # nothing on the solver channel
        assert tracker.total_telemetry_messages == 7  # P-1 tree edges
        assert set(tracker.telemetry_messages) == {
            (1, 0), (3, 2), (5, 4), (7, 6), (2, 0), (6, 4), (4, 0)}
        assert tracker.total_telemetry_bytes > 0
        snap = tracker.snapshot()
        assert snap["p2p_messages"] == {}
        assert snap["telemetry_messages"]

    def test_end_to_end_solver_telemetry(self):
        mat = poisson2d(12)
        part = RowPartition.from_matrix(mat, 4, seed=0)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, seed=0), part)
        cfg = TelemetryConfig(rank_sample=2)
        tracker = CommTracker()
        _, iterations = spmd_pipelined_pcg(
            da, b, rtol=1e-6, max_iterations=15, tracker=tracker,
            telemetry=cfg, clock=SKYLAKE.clock_model(),
        )
        cluster = cfg.result
        assert cluster is not None and cluster.ranks == 4
        phases = cluster.phase_seconds()  # modeled seconds of the schedule
        assert phases["compute"] > 0
        assert phases["reduction"] > 0
        assert phases["halo"] > 0
        assert cluster.hists["message_bytes"].count == tracker.total_messages
        assert cluster.counters["bytes"] == tracker.total_bytes
        assert len(cluster.sampled) == 2
        assert iterations > 0

    def test_telemetry_none_leaves_solver_untouched(self):
        mat = poisson2d(10)
        part = RowPartition.from_matrix(mat, 4, seed=0)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, seed=0), part)

        def solve(telemetry):
            tr = CommTracker()
            spmd_pipelined_pcg(da, b, rtol=1e-8, max_iterations=12,
                               tracker=tr, telemetry=telemetry)
            return tr

        bare = solve(None)
        probed = solve(TelemetryConfig(rank_sample=2))
        # identical solver traffic; telemetry rides its own accounting
        assert probed.total_messages == bare.total_messages
        assert probed.total_bytes == bare.total_bytes
        assert bare.total_telemetry_bytes == 0
        assert probed.total_telemetry_bytes > 0
