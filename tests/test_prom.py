"""Tests for the OpenMetrics exposition renderer (:mod:`repro.observe.prom`).

Round-trips go through :func:`parse_exposition` — the renderer's own small
reader — so escaping, counter ``_total`` suffixing and label ordering are
checked end to end against real :class:`MetricsRegistry` output.
"""

from __future__ import annotations

import pytest

from repro.instrument import MetricsRegistry
from repro.observe import (
    ClusterTelemetry,
    StreamingHistogram,
    Timeline,
    timeline_samples,
    write_openmetrics,
)
from repro.observe.prom import (
    escape_label_value,
    parse_exposition,
    render_openmetrics,
    sanitize_metric_name,
)
from repro.observe.stream import RankTelemetry
from tests.test_timeline import two_rank_spans


class TestNames:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("halo.bytes_sent") == "repro_halo_bytes_sent"
        assert sanitize_metric_name("a-b c", namespace="") == "a_b_c"
        assert sanitize_metric_name("9lives", namespace="") == "_9lives"

    def test_escape_label_value(self):
        assert escape_label_value('sla\\sh "q"\nnl') == 'sla\\\\sh \\"q\\"\\nnl'


class TestRender:
    def test_counters_get_total_suffix_and_type(self):
        reg = MetricsRegistry()
        reg.counter("halo.bytes_sent", rank=0).inc(128)
        text = render_openmetrics(reg)
        assert "# TYPE repro_halo_bytes_sent_total counter" in text
        assert 'repro_halo_bytes_sent_total{rank="0"} 128.0' in text
        assert text.rstrip().endswith("# EOF")

    def test_counter_totals_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("pcg.iterations").inc(42)
        reg.counter("halo.msgs", rank=1).inc(7)
        reg.counter("halo.msgs", rank=2).inc(9)
        parsed = parse_exposition(render_openmetrics(reg))
        assert parsed["repro_pcg_iterations_total"][()] == 42.0
        msgs = parsed["repro_halo_msgs_total"]
        assert msgs[(("rank", "1"),)] == 7.0
        assert msgs[(("rank", "2"),)] == 9.0
        assert sum(msgs.values()) == 16.0

    def test_label_values_escape_and_roundtrip(self):
        awkward = 'pat"tern\\with\nnewline'
        samples = [
            {"kind": "gauge", "name": "x", "tags": {"case": awkward}, "value": 1.0}
        ]
        text = render_openmetrics(samples)
        parsed = parse_exposition(text)
        assert parsed["repro_x"][(("case", awkward),)] == 1.0

    def test_histograms_become_count_sum_min_max(self):
        reg = MetricsRegistry()
        hist = reg.histogram("solve.seconds")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        parsed = parse_exposition(render_openmetrics(reg))
        assert parsed["repro_solve_seconds_count"][()] == 3.0
        assert parsed["repro_solve_seconds_sum"][()] == 6.0
        assert parsed["repro_solve_seconds_min"][()] == 1.0
        assert parsed["repro_solve_seconds_max"][()] == 3.0

    def test_write_openmetrics(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(1)
        path = write_openmetrics(tmp_path / "m.prom", reg)
        assert path.read_text().endswith("# EOF\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_exposition("!!! not exposition")


class TestTimelineSamples:
    def test_timeline_aggregates_render(self):
        tl = Timeline.from_spans(two_rank_spans())
        parsed = parse_exposition(render_openmetrics(timeline_samples(tl)))
        assert parsed["repro_timeline_makespan_seconds"][()] == pytest.approx(4.0)
        busy = parsed["repro_timeline_busy_seconds"]
        assert busy[(("rank", "0"),)] == pytest.approx(3.0)
        assert busy[(("rank", "1"),)] == pytest.approx(4.0)
        phase = parsed["repro_timeline_phase_seconds_total"]
        assert phase[(("phase", "wait"),)] == pytest.approx(2.5)
        # phase counters partition total busy time
        assert sum(phase.values()) == pytest.approx(7.0)
        assert parsed["repro_timeline_critical_path_seconds"][()] == pytest.approx(4.0)

    def test_registry_and_timeline_concatenate(self):
        reg = MetricsRegistry()
        reg.counter("pcg.iterations").inc(5)
        tl = Timeline.from_spans(two_rank_spans())
        parsed = parse_exposition(
            render_openmetrics(reg.collect() + timeline_samples(tl))
        )
        assert "repro_pcg_iterations_total" in parsed
        assert "repro_timeline_makespan_seconds" in parsed


class TestBucketedHistogramRoundTrip:
    """Export -> parse -> re-export must be byte-identical for histogram
    families (the streamed-telemetry artifact CI diffs as text)."""

    def _hist(self):
        h = StreamingHistogram()
        for v in (1.5e-6, 1.5e-6, 3e-6, 2.5e-4, 0.125, 0.125, 0.125, 7.0):
            h.observe(v)
        return h

    def test_bucket_family_renders_cumulative_with_inf(self):
        text = render_openmetrics(self._hist().to_samples("wait.halo"))
        parsed = parse_exposition(text)
        buckets = parsed["repro_wait_halo_bucket"]
        les = [dict(k)["le"] for k in buckets]
        assert "+Inf" in les
        finite = sorted(float(le) for le in les if le != "+Inf")
        counts = [buckets[(("le", repr(le)),)] for le in finite]
        assert counts == sorted(counts)  # cumulative
        assert buckets[(("le", "+Inf"),)] == 8.0
        assert parsed["repro_wait_halo_count"][()] == 8.0
        # exactly one TYPE line for the whole family
        assert text.count("# TYPE repro_wait_halo histogram") == 1
        assert "# TYPE repro_wait_halo_bucket" not in text

    def test_round_trip_is_byte_identical(self):
        h = self._hist()
        first = render_openmetrics(h.to_samples("wait.halo"))
        clone = StreamingHistogram.from_exposition(
            parse_exposition(first), "repro_wait_halo"
        )
        second = render_openmetrics(clone.to_samples("wait.halo"))
        assert second == first
        assert clone.buckets == h.buckets
        assert clone.count == h.count and clone.sum == h.sum

    def test_round_trip_with_labels(self):
        h = self._hist()
        first = render_openmetrics(h.to_samples("wait.halo", tags={"rank": 3}))
        clone = StreamingHistogram.from_exposition(
            parse_exposition(first), "repro_wait_halo",
            labels=(("rank", "3"),),
        )
        second = render_openmetrics(clone.to_samples("wait.halo",
                                                     tags={"rank": 3}))
        assert second == first

    def test_cluster_telemetry_exposition_parses(self):
        t = RankTelemetry(0)
        t.observe("wait.halo", 0.002)
        t.observe("compute", 0.01)
        t.hist("message_bytes").observe(4096)
        t.counters.update(messages=1, bytes=4096)
        cluster = ClusterTelemetry.from_rank(t)
        parsed = parse_exposition(render_openmetrics(cluster.to_prom_samples()))
        assert parsed["repro_telemetry_ranks"][()] == 1.0
        assert parsed["repro_telemetry_messages_total"][()] == 1.0
        assert "repro_telemetry_wait_halo_bucket" in parsed
        assert "repro_telemetry_rank_wait_seconds_bucket" in parsed

    def test_unbucketed_histograms_keep_summary_form(self):
        reg = MetricsRegistry()
        reg.histogram("solve.seconds").observe(1.0)
        text = render_openmetrics(reg)
        assert "# TYPE repro_solve_seconds summary" in text
        assert "_bucket" not in text
