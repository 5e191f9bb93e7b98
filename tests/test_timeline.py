"""Tests for cross-rank timeline reconstruction (:mod:`repro.observe.timeline`).

The synthetic-span tests pin the two arithmetic invariants of the merge:

* *flattening conservation* — merged total busy time equals the sum of the
  per-rank top-level (non-scaffold) span durations exactly, because child
  self-time is carved out of its parent, never double-counted;
* *critical-path bracketing* — the longest dependency chain is at least the
  busiest rank's busy time (program order alone is a valid chain) and at
  most the makespan (chained contributions are truncated to disjoint
  intervals).

The SPMD test (marked ``timeline_smoke``) checks both on a real traced
:func:`repro.dist.spmd.spmd_cg` run, plus the static
:func:`halo_critical_path` identity between FSAI and FSAIE-Comm that CI
gates via ``scripts/check_critical_path.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.precond import build_fsai, build_fsaie_comm
from repro.instrument import tracing
from repro.perfmodel import SKYLAKE
from repro.observe import (
    HaloCriticalPath,
    Timeline,
    TimelineError,
    halo_critical_path,
)
from repro.observe.timeline import classify_segment, CommEdge, Segment


def span(name, start, end, *, sid, parent=None, thread=0, **tags):
    """A raw span dict in the exporter's shape."""
    return {
        "name": name,
        "tags": tags,
        "start": start,
        "end": end,
        "duration": (end - start) if end is not None else 0.0,
        "span_id": sid,
        "parent_id": parent,
        "thread": thread,
    }


def two_rank_spans():
    """Two rank streams with one cross-rank halo dependency.

    rank 0: compute [0,3], then sends at t=3 (instant event)
    rank 1: compute [0,1], wait [1,3.5] released by rank 0's send,
            compute [3.5,4]
    """
    return [
        span("spmd.rank", 0.0, 4.0, sid=1, thread=10, rank=0),
        span("spmd.compute", 0.0, 3.0, sid=2, parent=1, thread=10, rank=0,
             kernel="spmv"),
        span("mpisim.send", 3.0, None, sid=3, parent=1, thread=10,
             src=0, dst=1, bytes=64),
        span("spmd.rank", 0.0, 4.0, sid=4, thread=11, rank=1),
        span("spmd.compute", 0.0, 1.0, sid=5, parent=4, thread=11, rank=1),
        span("spmd.halo.wait", 1.0, 3.5, sid=6, parent=4, thread=11, rank=1,
             src=0, bytes=64),
        span("spmd.compute", 3.5, 4.0, sid=7, parent=4, thread=11, rank=1),
    ]


class TestClassification:
    def test_kind_rules(self):
        assert classify_segment("spmd.halo.wait") == "wait"
        assert classify_segment("mpisim.wait") == "wait"
        assert classify_segment("spmd.halo.pack") == "pack"
        assert classify_segment("mpisim.allreduce") == "reduction"
        assert classify_segment("spmd.reduction") == "reduction"
        assert classify_segment("spmd.compute") == "compute"
        assert classify_segment("precond.factor") == "compute"


class TestMergeInvariants:
    def test_busy_equals_sum_of_top_level_spans(self):
        tl = Timeline.from_spans(two_rank_spans())
        busy = tl.busy_seconds()
        # rank 0: one 3 s compute; rank 1: 1 + 2.5 + 0.5 s
        assert busy[0] == pytest.approx(3.0)
        assert busy[1] == pytest.approx(4.0)
        # conservation: total busy == sum of non-scaffold span durations
        spans = [d for d in two_rank_spans()
                 if d["name"].startswith("spmd.") and d["name"] != "spmd.rank"]
        assert sum(busy.values()) == pytest.approx(
            sum(d["duration"] for d in spans)
        )

    def test_self_time_flattening_carves_out_children(self):
        spans = [
            span("spmd.rank", 0.0, 10.0, sid=1, thread=5, rank=0),
            span("outer", 0.0, 10.0, sid=2, parent=1, thread=5, rank=0),
            span("inner", 2.0, 5.0, sid=3, parent=2, thread=5, rank=0),
        ]
        tl = Timeline.from_spans(spans)
        # outer contributes [0,2] and [5,10]; inner [2,5]; total stays 10
        assert tl.busy_seconds(0) == pytest.approx(10.0)
        outer = sorted(
            (s.start, s.end) for s in tl.segments if s.name == "outer"
        )
        assert outer == [(0.0, 2.0), (5.0, 10.0)]

    def test_scaffold_and_instant_spans_are_excluded(self):
        tl = Timeline.from_spans(two_rank_spans())
        names = {s.name for s in tl.segments}
        assert "spmd.rank" not in names
        assert "mpisim.send" not in names
        assert len(tl.edges) == 1 and tl.edges[0] == CommEdge(0, 1, 64, 3.0)

    def test_rank_attribution_falls_back_to_thread_window(self):
        spans = [
            span("spmd.rank", 0.0, 4.0, sid=1, thread=7, rank=2),
            # no rank tag, no parent chain — only the thread window places it
            span("spmd.compute", 1.0, 2.0, sid=9, thread=7),
        ]
        tl = Timeline.from_spans(spans)
        assert [s.rank for s in tl.segments] == [2]

    def test_wait_histogram_and_slack(self):
        tl = Timeline.from_spans(two_rank_spans())
        wait = tl.wait_histogram()
        assert wait[0] == 0.0
        assert wait[1] == pytest.approx(2.5)
        slack = tl.slack_seconds()
        assert slack[0] == pytest.approx(1.0)  # makespan 4 − busy 3
        assert slack[1] == pytest.approx(0.0)


class TestCriticalPath:
    def test_bracketing_on_synthetic_chain(self):
        tl = Timeline.from_spans(two_rank_spans())
        cp = tl.critical_path()
        assert max(tl.busy_seconds().values()) <= cp.length + 1e-12
        assert cp.length <= tl.makespan + 1e-12
        # rank 1's full stream is the longest chain: exactly the makespan
        assert cp.length == pytest.approx(4.0)

    def test_cross_rank_edge_appears_on_path(self):
        # rank 0's work must dominate rank 1's pre-wait chain so the longest
        # path hops ranks: rank 1 starts late (0.2) while rank 0 computes
        # until 3.4 and only then releases the wait
        spans = two_rank_spans()
        spans[1]["end"] = 3.4  # compute [0,3.4] on rank 0
        spans[2]["start"] = 3.4  # send at 3.4
        spans[4]["start"] = 0.2  # rank 1 compute [0.2,1.0]
        tl = Timeline.from_spans(spans)
        cp = tl.critical_path()
        assert {s.rank for s in cp.segments} == {0, 1}
        assert len(cp.edges) == 1
        assert (cp.edges[0].src, cp.edges[0].dst) == (0, 1)
        assert cp.edges[0].wait_seconds == pytest.approx(2.5)

    def test_top_edges_ranked_by_blocked_time(self):
        from repro.observe import CriticalPath

        e1 = CommEdge(0, 1, 8, 0.0, wait_seconds=0.1)
        e2 = CommEdge(2, 1, 800, 0.0, wait_seconds=0.4)
        cp = CriticalPath(edges=[e1, e2])
        assert cp.top_edges(1) == [e2]

    def test_empty_timeline(self):
        tl = Timeline([])
        assert tl.critical_path().length == 0.0
        assert tl.makespan == 0.0
        assert tl.render_gantt() == "(empty timeline)"


class TestPersistence:
    def test_roundtrip_preserves_analysis(self, tmp_path):
        tl = Timeline.from_spans(two_rank_spans(), meta={"case": "synthetic"})
        path = tl.save(tmp_path / "t.json")
        back = Timeline.load(path)
        assert back.meta["case"] == "synthetic"
        assert back.segments == tl.segments
        assert back.edges == tl.edges
        assert back.critical_path().length == pytest.approx(
            tl.critical_path().length
        )

    def test_rejects_non_monotonic_document(self, tmp_path):
        tl = Timeline.from_spans(two_rank_spans())
        doc = tl.to_dict()
        doc["segments"][0], doc["segments"][-1] = (
            doc["segments"][-1],
            doc["segments"][0],
        )
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TimelineError, match="non-monotonic"):
            Timeline.load(path)

    def test_rejects_negative_duration(self):
        with pytest.raises(TimelineError, match="ends before it starts"):
            Timeline([Segment(0, "x", "compute", 2.0, 1.0)])

    def test_rejects_wrong_format_and_version(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(TimelineError, match="not a timeline"):
            Timeline.load(bad)
        newer = tmp_path / "newer.json"
        newer.write_text(
            json.dumps({"format": "repro-timeline", "version": 99, "segments": []})
        )
        with pytest.raises(TimelineError, match="version 99"):
            Timeline.load(newer)

    def test_missing_file_is_timeline_error(self, tmp_path):
        with pytest.raises(TimelineError, match="cannot read"):
            Timeline.load(tmp_path / "absent.json")

    def test_load_dispatches_trace_documents(self, tmp_path):
        doc = {"format": "repro-trace", "version": 1, "spans": two_rank_spans()}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        tl = Timeline.load(path)
        assert tl.ranks == [0, 1]


class TestRendering:
    def test_gantt_has_one_row_per_rank(self):
        tl = Timeline.from_spans(two_rank_spans())
        chart = tl.render_gantt(width=40)
        lines = chart.splitlines()
        assert lines[0].startswith("timeline: 2 ranks")
        assert sum(1 for line in lines if line.startswith("rank ")) == 2
        assert "legend:" in lines[-1]
        # rank 1 spent most of its time blocked — W must appear in its row
        rank1 = next(line for line in lines if line.startswith("rank  1"))
        assert "W" in rank1

    def test_summary_shape(self):
        tl = Timeline.from_spans(two_rank_spans())
        s = tl.summary()
        assert s["ranks"] == 2
        assert s["total_busy_seconds"] == pytest.approx(7.0)
        assert s["max_wait_seconds"] == pytest.approx(2.5)
        assert s["critical_path"]["length_seconds"] == pytest.approx(4.0)


class TestStaticHaloPath:
    def test_fsai_and_comm_schedules_identical(self, dist_poisson16):
        mat, part, _, _ = dist_poisson16
        fsai = build_fsai(mat, part)
        comm = build_fsaie_comm(mat, part)
        for attr in ("g", "gt"):
            base = halo_critical_path(getattr(fsai, attr).schedule)
            ext = halo_critical_path(getattr(comm, attr).schedule)
            assert isinstance(base, HaloCriticalPath)
            assert base == ext  # edge-for-edge, byte-for-byte
            assert base.total_bytes == sum(b for _, _, b in base.edges)
            assert str(base.rank) in base.render()


@pytest.mark.timeline_smoke
class TestSpmdReconstruction:
    def test_spmd_cg_timeline_invariants(self, dist_poisson16):
        from repro.dist.spmd import spmd_cg

        mat, part, da, b = dist_poisson16
        pre = build_fsaie_comm(mat, part)

        def traced_timeline():
            with tracing() as (tracer, _):
                _, iterations = spmd_cg(
                    da, b, precond_pair=(pre.g, pre.gt), max_iterations=200,
                    clock=SKYLAKE.clock_model(),
                )
            roots.append([s.start for s in tracer.by_name("spmd.rank")])
            return Timeline.from_tracer(tracer, meta={"iterations": iterations})

        roots = []
        tl = traced_timeline()
        assert tl.ranks == [0, 1, 2, 3]
        # modeled seconds on one shared axis: every rank launches at 0 (no
        # clock offsets) and a second run reproduces the document exactly
        assert roots == [[0.0] * 4]
        assert traced_timeline().to_dict() == tl.to_dict()
        kinds = {s.kind for s in tl.segments}
        assert {"compute", "pack", "wait", "reduction"} <= kinds
        cp = tl.critical_path()
        max_busy = max(tl.busy_seconds().values())
        assert max_busy <= cp.length + 1e-9
        assert cp.length <= tl.makespan + 1e-9
        # halo traffic was recorded as cross-rank edges
        assert tl.edges and all(e.src != e.dst for e in tl.edges)


class TestFromSpansValidation:
    def test_empty_stream_raises_named_error(self):
        with pytest.raises(TimelineError, match=r"span stream '<spans>' is empty"):
            Timeline.from_spans([])

    def test_empty_stream_names_meta_source(self):
        with pytest.raises(TimelineError, match="trace-7"):
            Timeline.from_spans([], meta={"source": "trace-7"})

    def test_malformed_span_is_named_not_keyerror(self):
        bad = [{"name": "spmd.compute", "tags": {"rank": 0}}]  # no "start"
        with pytest.raises(TimelineError, match=r"span #0 .*spmd.compute"):
            Timeline.from_spans(bad)

    def test_non_dict_span_is_rejected(self):
        with pytest.raises(TimelineError, match="span #1"):
            Timeline.from_spans([span("spmd.rank", 0, 1, sid=1, rank=0),
                                 "not a span"])

    def test_rankless_stream_raises_clean_error(self):
        rankless = [span("startup", 0.0, 1.0, sid=1, thread=5)]
        with pytest.raises(TimelineError, match="no rank-attributable spans"):
            Timeline.from_spans(rankless, meta={"label": "boot-trace"})


def many_rank_spans(nranks=6):
    """One compute + increasing wait per rank: rank r waits r seconds."""
    spans = []
    for r in range(nranks):
        sid = 10 * r + 1
        spans.append(span("spmd.rank", 0.0, 10.0, sid=sid, thread=r, rank=r))
        spans.append(span("spmd.compute", 0.0, 1.0, sid=sid + 1, parent=sid,
                          thread=r, rank=r))
        if r:
            spans.append(span("spmd.halo.wait", 1.0, 1.0 + r, sid=sid + 2,
                              parent=sid, thread=r, rank=r))
    return spans


class TestGanttCapping:
    def test_top_ranks_orders_by_wait(self):
        tl = Timeline.from_spans(many_rank_spans(6))
        assert tl.top_ranks(3) == [3, 4, 5]   # rank-sorted, top by wait
        assert tl.top_ranks() == list(range(6))
        assert tl.top_ranks(99) == list(range(6))

    def test_max_ranks_caps_rows_and_adds_footer(self):
        tl = Timeline.from_spans(many_rank_spans(6))
        chart = tl.render_gantt(width=40, max_ranks=2)
        lines = chart.splitlines()
        rows = [line for line in lines if line.startswith("rank ")]
        assert len(rows) == 2
        assert rows[0].startswith("rank  4")
        assert rows[1].startswith("rank  5")
        assert any("4 ranks elided; showing top 2 by wait time" in line
                   for line in lines)

    def test_uncapped_chart_has_no_footer(self):
        tl = Timeline.from_spans(many_rank_spans(4))
        chart = tl.render_gantt(width=40)
        assert "elided" not in chart
        assert sum(1 for line in chart.splitlines()
                   if line.startswith("rank ")) == 4

    def test_cap_wider_than_ranks_is_a_noop(self):
        tl = Timeline.from_spans(many_rank_spans(3))
        assert tl.render_gantt(max_ranks=10) == tl.render_gantt()
