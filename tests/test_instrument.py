"""Unit and integration tests for :mod:`repro.instrument`."""

from __future__ import annotations

import json

import pytest

from repro.core import build_fsaie_comm, pcg
from repro.instrument import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    get_metrics,
    get_tracer,
    read_json_trace,
    tracing,
    write_chrome_trace,
    write_json_trace,
)
from repro.instrument.export import to_chrome_trace
from repro.instrument.export import spans_from_dicts
from repro.mpisim.tracker import CommTracker


class FakeClock:
    """Deterministic clock: every reading advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t


class TestTracer:
    def test_span_records_duration(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work"):
            pass
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.duration == 1.0
        assert span.parent_id is None

    def test_nesting_builds_a_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        inner = tracer.children(outer)
        assert [s.name for s in inner] == ["inner.a", "inner.b"]
        assert all(s.parent_id == outer.span_id for s in inner)
        assert tracer.roots() == [outer]

    def test_tags_at_creation_and_set_tag(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("halo.exchange", rank=3, bytes=640) as span:
            span.set_tag("neighbours", 4)
        (span,) = tracer.by_name("halo.exchange")
        assert span.tags == {"rank": 3, "bytes": 640, "neighbours": 4}

    def test_exception_tags_error_and_closes(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.tags["error"] == "ValueError"
        assert span.end is not None

    def test_event_is_instant_and_nested(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            ev = tracer.event("mpisim.send", src=0, dst=1)
        assert ev.duration == 0.0
        assert ev.parent_id == outer.span_id

    def test_current_tracks_innermost(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.current() is None
        with tracer.span("a"):
            with tracer.span("b") as b:
                assert tracer.current() is b
        assert tracer.current() is None

    def test_total_seconds_and_clear(self):
        tracer = Tracer(clock=FakeClock())
        for _ in range(3):
            with tracer.span("step"):
                pass
        assert tracer.total_seconds("step") == 3.0
        tracer.clear()
        assert len(tracer) == 0

    def test_spans_sorted_by_start(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("first"):
            with tracer.span("second"):
                pass
        # "second" closes before "first" but starts after it
        assert [s.name for s in tracer.spans] == ["first", "second"]


class TestDisabledMode:
    def test_defaults_are_null_singletons(self):
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS
        assert not get_tracer().enabled
        assert not get_metrics().enabled

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("anything", rank=1) as span:
            span.set_tag("ignored", True)
        assert NULL_TRACER.spans == []
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.event("x") is None

    def test_null_metrics_swallow_updates(self):
        NULL_METRICS.counter("n").inc(5)
        NULL_METRICS.gauge("g", rank=0).set(1.0)
        NULL_METRICS.histogram("h").observe(2.0)
        assert NULL_METRICS.collect() == []

    def test_tracing_context_restores_previous(self):
        with tracing() as (outer_tracer, _):
            assert get_tracer() is outer_tracer
            with tracing() as (inner_tracer, _):
                assert get_tracer() is inner_tracer
            assert get_tracer() is outer_tracer
        assert get_tracer() is NULL_TRACER


class TestMetrics:
    def test_counter_get_or_create_by_tags(self):
        reg = MetricsRegistry()
        a = reg.counter("halo.bytes", rank=0)
        b = reg.counter("halo.bytes", rank=0)
        c = reg.counter("halo.bytes", rank=1)
        assert a is b and a is not c
        a.inc(8)
        c.inc(16)
        assert reg.value("halo.bytes", rank=0) == 8
        assert reg.sum_values("halo.bytes") == 24

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("n").inc(-1)

    def test_gauge_last_value_wins(self):
        reg = MetricsRegistry()
        reg.gauge("nnz", rank=2).set(10)
        reg.gauge("nnz", rank=2).set(12)
        assert reg.value("nnz", rank=2) == 12

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == 2.5
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 4.0

    def test_find_filters_by_tags(self):
        reg = MetricsRegistry()
        for r in range(3):
            reg.gauge("precond.nnz_rank", rank=r).set(r * 10)
        assert len(reg.find("precond.nnz_rank")) == 3
        assert len(reg.find("precond.nnz_rank", rank=1)) == 1


class TestExport:
    def make_trace(self):
        tracer = Tracer(clock=FakeClock())
        metrics = MetricsRegistry()
        with tracer.span("pcg.solve", ranks=4):
            with tracer.span("pcg.iteration", index=0):
                tracer.event("mpisim.send", src=0, dst=1, bytes=64)
        metrics.counter("pcg.iterations").inc(1)
        metrics.gauge("precond.nnz", method="FSAI").set(100)
        return tracer, metrics

    def test_json_roundtrip(self, tmp_path):
        tracer, metrics = self.make_trace()
        path = write_json_trace(tmp_path / "t.json", tracer, metrics)
        doc = read_json_trace(path)
        spans = spans_from_dicts(doc["spans"])
        assert [s.name for s in spans] == [s.name for s in tracer.spans]
        assert [s.tags for s in spans] == [s.tags for s in tracer.spans]
        assert [s.parent_id for s in spans] == [s.parent_id for s in tracer.spans]
        assert {m["name"] for m in doc["metrics"]} == {
            "pcg.iterations",
            "precond.nnz",
        }

    def test_read_rejects_foreign_documents(self, tmp_path):
        from repro.instrument import TraceError

        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(TraceError):
            read_json_trace(path)
        # TraceError stays catchable as the ValueError it always was
        with pytest.raises(ValueError):
            read_json_trace(path)

    def test_read_rejects_non_monotonic_spans(self, tmp_path):
        from repro.instrument import TraceError

        tracer, metrics = self.make_trace()
        path = write_json_trace(tmp_path / "t.json", tracer, metrics)
        doc = json.loads(path.read_text())
        # tamper: drag the last span's timestamps before its predecessor's
        doc["spans"][-1]["start"] = doc["spans"][0]["start"] - 5.0
        doc["spans"][-1]["end"] = doc["spans"][0]["start"] - 4.0
        path.write_text(json.dumps(doc))
        with pytest.raises(TraceError, match="non-monotonic"):
            read_json_trace(path)

    def test_read_rejects_span_ending_before_start(self, tmp_path):
        from repro.instrument import TraceError

        tracer, metrics = self.make_trace()
        path = write_json_trace(tmp_path / "t.json", tracer, metrics)
        doc = json.loads(path.read_text())
        doc["spans"][0]["end"] = doc["spans"][0]["start"] - 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(TraceError, match="ends before it starts"):
            read_json_trace(path)

    def test_chrome_trace_structure(self):
        tracer, metrics = self.make_trace()
        doc = to_chrome_trace(tracer, metrics)
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instant = [e for e in events if e["ph"] == "i"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"pcg.solve", "pcg.iteration"}
        assert instant[0]["name"] == "mpisim.send"
        assert any(e["name"] == "process_name" for e in meta)
        # timestamps are µs offsets from the earliest span
        assert min(e["ts"] for e in complete) == 0
        assert all(e["dur"] >= 0 for e in complete)
        assert doc["otherData"]["metrics"]

    def test_chrome_trace_written_file_is_json(self, tmp_path):
        tracer, metrics = self.make_trace()
        path = write_chrome_trace(tmp_path / "chrome.json", tracer, metrics)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


class TestSolverIntegration:
    def test_pcg_emits_one_span_per_iteration(self, poisson3d8):
        from repro.dist import DistMatrix, DistVector, RowPartition
        from repro.matgen import paper_rhs

        part = RowPartition.from_matrix(poisson3d8, 4, seed=1)
        da = DistMatrix.from_global(poisson3d8, part)
        b = DistVector.from_global(paper_rhs(poisson3d8, seed=1), part)
        pre = build_fsaie_comm(poisson3d8, part)
        tracker = CommTracker()
        with tracing() as (tracer, metrics):
            result = pcg(da, b, precond=pre, tracker=tracker)
        assert result.converged
        iteration_spans = tracer.by_name("pcg.iteration")
        assert len(iteration_spans) == result.iterations
        assert metrics.value("pcg.iterations") == result.iterations
        # every iteration span contains the SpMV and preconditioner children
        for it in iteration_spans:
            child_names = {s.name for s in tracer.children(it)}
            assert "pcg.spmv" in child_names
            assert "pcg.precond" in child_names

    def test_halo_exchange_bytes_match_tracker(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        pre = build_fsaie_comm(mat, part)
        tracker = CommTracker()
        with tracing() as (tracer, _):
            pcg(da, b, precond=pre, tracker=tracker)
        halo_bytes = sum(s.tags["bytes"] for s in tracer.by_name("halo.exchange"))
        assert halo_bytes == tracker.total_bytes > 0

    def test_build_phases_traced(self, poisson3d8):
        from repro.dist import RowPartition

        part = RowPartition.from_matrix(poisson3d8, 4, seed=1)
        with tracing() as (tracer, _):
            build_fsaie_comm(poisson3d8, part)
        for phase in ("precond.pattern", "precond.extension",
                      "precond.filtering", "precond.factor"):
            assert tracer.by_name(phase), f"missing {phase} span"

    def test_disabled_mode_interferes_with_nothing(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        pre = build_fsaie_comm(mat, part)
        result = pcg(da, b, precond=pre)
        assert result.converged
        assert get_tracer().spans == []


class TestSpmdConcurrency:
    """Tracer and MetricsRegistry under the SPMD engine.

    The observe layer reads rank-tagged spans and instruments recorded by
    interleaved rank coroutines (one span stack per rank on the one
    thread); these tests pin down that nothing is lost or cross-attributed.
    """

    RANKS = 4
    EVENTS_PER_RANK = 50

    def test_no_events_lost_across_concurrent_ranks(self):
        from spmd_engine import run_spmd

        with tracing() as (tracer, metrics):

            async def prog(comm):
                for k in range(self.EVENTS_PER_RANK):
                    tracer.event("spmd.tick", rank=comm.rank, k=k)
                    metrics.counter("spmd.ticks", rank=comm.rank).inc()
                    metrics.counter("spmd.shared").inc()
                return comm.rank

            assert run_spmd(prog, self.RANKS) == list(range(self.RANKS))
            ticks = [s for s in tracer.spans if s.name == "spmd.tick"]
            assert len(ticks) == self.RANKS * self.EVENTS_PER_RANK
            for rank in range(self.RANKS):
                mine = [s for s in ticks if s.tags["rank"] == rank]
                assert len(mine) == self.EVENTS_PER_RANK
                # per-rank event payloads intact, in program order
                assert [s.tags["k"] for s in mine] == list(range(self.EVENTS_PER_RANK))
                assert metrics.value("spmd.ticks", rank=rank) == self.EVENTS_PER_RANK
            # one shared instrument incremented from every rank
            assert metrics.value("spmd.shared") == self.RANKS * self.EVENTS_PER_RANK

    def test_span_parents_stay_per_thread(self):
        from spmd_engine import run_spmd

        with tracing() as (tracer, _):

            async def prog(comm):
                with tracer.span("spmd.outer", rank=comm.rank):
                    tracer.event("spmd.inner", rank=comm.rank)
                    with tracer.span("spmd.mid", rank=comm.rank):
                        tracer.event("spmd.deep", rank=comm.rank)

            run_spmd(prog, self.RANKS)
            outer = {s.tags["rank"]: s for s in tracer.spans if s.name == "spmd.outer"}
            mid = {s.tags["rank"]: s for s in tracer.spans if s.name == "spmd.mid"}
            assert len(outer) == self.RANKS and len(mid) == self.RANKS
            # events nest under their *own* rank's open span, never a sibling's
            for span in (s for s in tracer.spans if s.name == "spmd.inner"):
                assert span.parent_id == outer[span.tags["rank"]].span_id
            for span in (s for s in tracer.spans if s.name == "spmd.deep"):
                assert span.parent_id == mid[span.tags["rank"]].span_id
            for rank, span in mid.items():
                assert span.parent_id == outer[rank].span_id
            # everything a rank recorded sits on that rank's own track
            for span in (s for s in tracer.spans if s.name.startswith("spmd.")):
                assert span.thread == outer[span.tags["rank"]].thread

    def test_histograms_accumulate_exactly_under_concurrency(self):
        from spmd_engine import run_spmd

        with tracing() as (_, metrics):

            async def prog(comm):
                hist = metrics.histogram("spmd.load")
                for k in range(self.EVENTS_PER_RANK):
                    hist.observe(1.0)

            run_spmd(prog, self.RANKS)
            (hist,) = metrics.find("spmd.load")
            assert hist.count == self.RANKS * self.EVENTS_PER_RANK
            assert hist.total == pytest.approx(self.RANKS * self.EVENTS_PER_RANK)

    def test_nested_tracing_restores_sinks_around_spmd_run(self):
        from spmd_engine import run_spmd

        async def prog(comm):
            get_tracer().event("spmd.tick", rank=comm.rank)

        with tracing() as (outer_tracer, outer_metrics):
            outer_tracer.event("outer.before")
            with tracing() as (inner_tracer, inner_metrics):
                run_spmd(prog, 2)
                assert get_tracer() is inner_tracer
                assert get_metrics() is inner_metrics
            # inner scope captured the SPMD events; outer sinks restored clean
            assert len(inner_tracer.by_name("spmd.tick")) == 2
            assert get_tracer() is outer_tracer
            assert get_metrics() is outer_metrics
            assert outer_tracer.by_name("spmd.tick") == []
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS
