"""Tests for the observability layer (:mod:`repro.observe`).

Covers the four pieces and their solver/metric emission contracts:

* flight recorder — per-iteration events from the Krylov solvers, parsed
  back by :class:`FlightRecord`, with stagnation/divergence detectors;
* communication-invariance verdicts — the paper's §4 claim as a verdict
  object, including the acceptance cases (FSAI vs FSAIE-Comm invariant on a
  2-D stencil across 4 ranks; a deliberately halo-widened pattern flagged);
* load-balance metrics — bisection trajectories recorded by
  ``compute_dynamic_filters``;
* unified run reports — versioned JSON roundtrip, format dispatch, and the
  :meth:`RunReport.compare` regression comparator.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.cg import pcg
from repro.core.filtering import FilterSpec, compute_dynamic_filters
from repro.core.fsai import fsai_pattern
from repro.core.precond import build_fsai, build_fsaie_comm, check_comm_invariance
from repro.core.solvers import pipelined_pcg
from repro.dist.halo import HaloSchedule
from repro.dist.partition_map import RowPartition
from repro.dist.vector import DistVector
from repro.instrument import tracing
from repro.mpisim.tracker import CommTracker
from repro.observe import (
    DIVERGENCE_FACTOR,
    TRUE_RESIDUAL_INTERVAL,
    FlightRecord,
    ReportError,
    RunReport,
    compare_snapshots,
    schedule_snapshot,
)
from repro.observe.report import flatten_metrics
from repro.sparse.pattern import SparsityPattern


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_pcg_emits_iteration_events(self, dist_poisson16):
        _, _, da, b = dist_poisson16
        with tracing() as (tracer, _):
            result = pcg(da, b)  # plain CG: enough iterations for drift checks
            record = FlightRecord.from_tracer(tracer, solver="pcg")
        assert result.converged
        assert record.solver == "pcg"
        assert record.iterations == result.iterations
        assert record.indices == list(range(result.iterations))
        # residual series matches the solver's own history (post-initial)
        assert record.residuals == pytest.approx(result.residual_norms[1:])
        assert record.final_residual == pytest.approx(result.final_residual)
        # alpha/beta recorded for every iteration
        assert all(a is not None for a in record.alphas)
        assert all(b_ is not None for b_ in record.betas)
        assert record.alphas == pytest.approx(result.alphas)

    def test_pcg_drift_checks_fire_on_schedule(self, dist_poisson16):
        _, _, da, b = dist_poisson16
        with tracing() as (tracer, _):
            result = pcg(da, b)
            record = FlightRecord.from_tracer(tracer)
        assert result.iterations >= TRUE_RESIDUAL_INTERVAL
        expected = result.iterations // TRUE_RESIDUAL_INTERVAL
        assert len(record.drift_checks) == expected
        for check in record.drift_checks:
            assert (check.index + 1) % TRUE_RESIDUAL_INTERVAL == 0
            assert math.isfinite(check.true_residual)
        # recurrence CG on a small SPD problem barely drifts
        assert record.max_drift < 1e-10

    def test_drift_spmv_charged_to_solve_tracker(self, dist_poisson16):
        """The explicit true-residual SpMV must not break the traced-bytes
        == tracker-bytes invariant (it runs the same halo schedule)."""
        _, _, da, b = dist_poisson16
        tracker = CommTracker()
        with tracing() as (tracer, _):
            pcg(da, b, tracker=tracker)
        traced = sum(
            int(s.tags.get("bytes", 0))
            for s in tracer.spans
            if s.name == "halo.exchange"
        )
        assert traced == tracker.total_bytes

    def test_pcg_and_pipelined_emit_tagged_events(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        pre = build_fsai(mat, part)
        with tracing() as (tracer, _):
            r1 = pcg(da, b, precond=pre)
            r2 = pipelined_pcg(da, b, precond=pre)
            std = FlightRecord.from_tracer(tracer, solver="pcg")
            pipe = FlightRecord.from_tracer(tracer, solver="pipelined_pcg")
        assert std.iterations == r1.iterations
        assert pipe.iterations == r2.iterations
        assert all(a is not None for a in pipe.alphas)

    def test_disabled_tracing_records_nothing(self, dist_poisson16):
        from repro.instrument import get_tracer

        _, _, da, b = dist_poisson16
        result = pcg(da, b)
        assert result.converged
        assert get_tracer().spans == []

    def test_stagnation_detector(self):
        rec = FlightRecord(
            solver="pcg",
            indices=list(range(30)),
            residuals=[1.0] * 15 + [0.5 * 0.5**k for k in range(15)],
        )
        stalls = rec.stagnation(window=10)
        assert stalls  # flat opening stretch flagged
        assert stalls[0] == 10
        assert 29 not in stalls  # converging tail is clean

    def test_stagnation_rejects_bad_window(self):
        with pytest.raises(ValueError):
            FlightRecord().stagnation(window=0)

    def test_divergence_detector_offline_and_events(self):
        residuals = [1.0, 2.0, 25.0, 0.5]
        rec = FlightRecord(indices=[0, 1, 2, 3], residuals=residuals)
        assert rec.divergence(factor=DIVERGENCE_FACTOR) == [2]
        assert rec.divergence(factor=1.5) == [1, 2]

    def test_from_spans_filters_by_solver(self):
        spans = [
            {"name": "flight.iteration",
             "tags": {"solver": "pipelined_pcg", "index": 0, "residual": 1.0,
                      "alpha": 0.5}},
            {"name": "flight.iteration",
             "tags": {"solver": "pcg", "index": 0, "residual": 2.0,
                      "alpha": 0.1, "beta": 0.2}},
            {"name": "flight.divergence", "tags": {"solver": "pcg", "index": 7}},
            {"name": "pcg.iteration", "tags": {"solver": "pcg"}},  # not a flight event
        ]
        rec = FlightRecord.from_spans(spans, solver="pipelined_pcg")
        assert rec.iterations == 1
        assert rec.alphas == [0.5]
        assert rec.betas == [None]
        assert rec.divergence_events == []
        rec = FlightRecord.from_spans(spans, solver="pcg")
        assert rec.betas == [0.2]
        assert rec.divergence_events == [7]

    def test_summary_is_json_serialisable(self, dist_poisson16):
        _, _, da, b = dist_poisson16
        with tracing() as (tracer, _):
            pcg(da, b)
            summary = FlightRecord.from_tracer(tracer).summary()
        doc = json.loads(json.dumps(summary))
        assert doc["solver"] == "pcg"
        assert doc["iterations"] > 0
        assert doc["drift_checks"]


# ----------------------------------------------------------------------
# communication-invariance verdicts (acceptance cases)
# ----------------------------------------------------------------------
def _widened_pattern(pattern: SparsityPattern, partition) -> SparsityPattern:
    """Copy ``pattern`` with one extra entry coupling a rank-0 row to a
    column owned by the last rank, which it must not receive from already
    (true of contiguous strips of a stencil, not of every graph partition)."""
    owner = partition.owner
    far = partition.nparts - 1
    assert (far, 0) not in HaloSchedule.from_pattern(pattern, partition).edges()
    row = int(np.flatnonzero(owner == 0)[-1])
    col = int(np.flatnonzero(owner == far)[0])
    indptr, indices = pattern.indptr, pattern.indices
    assert col not in indices[indptr[row] : indptr[row + 1]]
    new_indices, new_indptr = [], [0]
    for r in range(pattern.shape[0]):
        cols = indices[indptr[r] : indptr[r + 1]].tolist()
        if r == row:
            cols = sorted(cols + [col])
        new_indices.extend(cols)
        new_indptr.append(len(new_indices))
    return SparsityPattern(
        pattern.shape,
        np.asarray(new_indptr, dtype=np.int64),
        np.asarray(new_indices, dtype=np.int64),
        check=False,
    )


def schedule_verdict(base, other, **labels):
    """Verdict on the traffic of one halo update of each schedule."""
    return compare_snapshots(schedule_snapshot(base), schedule_snapshot(other), **labels)


class TestInvarianceAuditor:
    """On a 2-D stencil across >= 4 simulated ranks, the verdicts prove
    FSAI vs FSAIE-Comm identical and refute a widened halo."""

    def test_fsai_vs_fsaie_comm_invariant(self, dist_poisson16):
        mat, part, _, _ = dist_poisson16
        assert part.nparts >= 4
        base = build_fsai(mat, part)
        extended = build_fsaie_comm(mat, part)
        assert check_comm_invariance(base, extended)
        for factor in ("g", "gt"):
            verdict = schedule_verdict(
                getattr(base, factor).schedule,
                getattr(extended, factor).schedule,
                base_label=f"FSAI.{factor}",
                other_label=f"FSAIE-Comm.{factor}",
            )
            assert verdict.invariant, verdict.render()
            assert verdict.violations == 0
            # identical edge/message/byte totals, not merely "no diff found"
            assert verdict.base_totals == verdict.other_totals
            assert verdict.base_totals[0] > 0  # the stencil does communicate
            assert "HOLDS" in verdict.render()

    def test_halo_widened_pattern_flagged(self, poisson16):
        mat, part = poisson16, RowPartition.contiguous(poisson16.nrows, 4)
        pattern = fsai_pattern(mat)
        widened = _widened_pattern(pattern, part)
        verdict = schedule_verdict(
            HaloSchedule.from_pattern(pattern, part),
            HaloSchedule.from_pattern(widened, part),
            base_label="fsai",
            other_label="widened",
        )
        assert not verdict.invariant
        assert verdict.extra_edges  # the offending new edge is named
        assert verdict.missing_edges == []
        assert verdict.violations >= 1
        assert "VIOLATED" in verdict.render()
        assert "extra edge" in verdict.render()
        edge = verdict.extra_edges[0]
        assert edge[1] == 0  # rank 0's halo was widened

    def test_halo_widened_preconditioner_object_flagged(self, poisson16):
        """A doctored preconditioner fails the invariance check; the verdict
        names the edge it added."""
        mat, part = poisson16, RowPartition.contiguous(poisson16.nrows, 4)
        base = build_fsai(mat, part)
        widened_sched = HaloSchedule.from_pattern(
            _widened_pattern(fsai_pattern(mat), part), part
        )
        doctored = SimpleNamespace(
            name="FSAI-widened",
            g=SimpleNamespace(schedule=widened_sched),
            gt=SimpleNamespace(schedule=base.gt.schedule),
        )
        assert not check_comm_invariance(base, doctored)
        assert schedule_verdict(base.gt.schedule, doctored.gt.schedule).invariant
        doc = schedule_verdict(base.g.schedule, doctored.g.schedule).to_dict()
        assert doc["invariant"] is False
        assert doc["extra_edges"]  # "src->dst" strings
        assert all("->" in e for e in doc["extra_edges"])

    def test_schedule_snapshot_accounting(self, dist_poisson16):
        mat, part, _, _ = dist_poisson16
        sched = HaloSchedule.from_pattern(fsai_pattern(mat), part)
        snap = schedule_snapshot(sched)
        assert set(snap["p2p_messages"]) == sched.edges()
        assert all(v == 1 for v in snap["p2p_messages"].values())
        assert sum(snap["p2p_bytes"].values()) == 8 * sched.total_halo_values()

    def test_compare_snapshots_accepts_string_keys(self):
        live = {"p2p_messages": {(0, 1): 2}, "p2p_bytes": {(0, 1): 16},
                "collective_calls": {}, "collective_bytes": {}}
        exported = {"p2p_messages": {"0->1": 2}, "p2p_bytes": {"0->1": 16},
                    "collective_calls": {}, "collective_bytes": {}}
        assert compare_snapshots(live, exported).invariant

    def test_compare_snapshots_byte_and_message_mismatches(self):
        a = {"p2p_messages": {(0, 1): 2, (1, 0): 1},
             "p2p_bytes": {(0, 1): 16, (1, 0): 8},
             "collective_calls": {"allreduce": 3}, "collective_bytes": {"allreduce": 24}}
        b = {"p2p_messages": {(0, 1): 2, (1, 0): 2},
             "p2p_bytes": {(0, 1): 32, (1, 0): 16},
             "collective_calls": {"allreduce": 5}, "collective_bytes": {"allreduce": 40}}
        verdict = compare_snapshots(a, b)
        assert not verdict.invariant
        assert verdict.byte_mismatches[(0, 1)] == (16, 32)
        assert verdict.message_mismatches[(1, 0)] == (1, 2)
        assert "allreduce" in verdict.collective_mismatches
        # p2p-only comparison drops the collective discrepancy
        p2p_only = compare_snapshots(a, b, check_collectives=False)
        assert "allreduce" not in p2p_only.collective_mismatches


# ----------------------------------------------------------------------
# load-balance metrics
# ----------------------------------------------------------------------
def _imbalanced_inputs():
    """4 ranks, rank 0 heavily overloaded by extension entries."""
    base_counts = np.array([100, 100, 100, 100])
    ratios = [
        np.linspace(0.02, 0.9, 300),  # rank 0: many strong extension entries
        np.full(10, 0.02),
        np.full(10, 0.02),
        np.full(10, 0.02),
    ]
    return base_counts, ratios


class TestBalanceMonitor:
    def test_dynamic_filters_record_trajectories(self):
        base_counts, ratios = _imbalanced_inputs()
        spec = FilterSpec(0.01, dynamic=True)
        with tracing() as (_, metrics):
            filters = compute_dynamic_filters(base_counts, ratios, spec)
        for rank in range(4):
            assert metrics.value("filter.value", rank=rank) == filters[rank]
        # the overloaded rank bisected: raised filter, multi-step trajectory
        steps = metrics.value("filter.bisection.steps", rank=0)
        assert filters[0] > spec.value
        assert steps >= 1
        assert len(metrics.value("filter.bisection.load", rank=0)) == steps + 1
        # underloaded ranks stop at the initial evaluation
        for rank in (1, 2, 3):
            assert filters[rank] == spec.value
            assert metrics.value("filter.bisection.steps", rank=rank) == 0
            assert len(metrics.value("filter.bisection.load", rank=rank)) == 1
        # final gauges reproduce the loads the bisection converged to
        assert metrics.value("filter.load", rank=0) <= spec.band[1] + 1e-12

    def test_metrics_silent_when_disabled(self):
        from repro.instrument import get_metrics

        base_counts, ratios = _imbalanced_inputs()
        compute_dynamic_filters(base_counts, ratios, FilterSpec(0.01, dynamic=True))
        assert get_metrics().collect() == []

# ----------------------------------------------------------------------
# halo traffic counters (satellite: per-rank accounting on both paths)
# ----------------------------------------------------------------------
class TestHaloCounters:
    def test_bytes_sent_counters_match_tracker(self, dist_poisson16):
        mat, part, da, _ = dist_poisson16
        x = DistVector.from_global(np.ones(mat.nrows), part)
        tracker = CommTracker()
        with tracing() as (_, metrics):
            da.spmv(x, tracker)
        sched = da.schedule
        total = 0
        for q in range(part.nparts):
            expected_bytes = sum(
                8 * int(ids.size) for ids in sched.send_to[q].values() if ids.size
            )
            expected_msgs = sum(1 for ids in sched.send_to[q].values() if ids.size)
            if expected_msgs:
                assert metrics.value("halo.bytes_sent", rank=q) == expected_bytes
                assert metrics.value("halo.msgs", rank=q) == expected_msgs
            total += expected_bytes
        assert total == tracker.total_bytes

    def test_counters_identical_on_out_path(self, dist_poisson16):
        """The legacy and ``out=`` halo update paths account identically."""
        mat, part, da, _ = dist_poisson16
        x = DistVector.from_global(np.ones(mat.nrows), part)
        with tracing() as (_, legacy):
            da.schedule.update(x.parts, None)
        parts = [p.copy() for p in x.parts]
        out = [np.empty(da.schedule.halo_size(r)) for r in range(part.nparts)]
        with tracing() as (_, reused):
            da.schedule.update(parts, None, out=out)
        def halo_only(metrics):
            return {
                k: v
                for k, v in flatten_metrics(metrics.collect()).items()
                if k.startswith("halo.")
            }

        # identical per-rank halo accounting (the out= path skips the buffer
        # allocations, so kernels.* counters legitimately differ)
        assert halo_only(legacy) == halo_only(reused)
        assert halo_only(legacy)  # non-vacuous


# ----------------------------------------------------------------------
# unified run reports
# ----------------------------------------------------------------------
class TestRunReport:
    def _sample(self) -> RunReport:
        report = RunReport(meta={"label": "sample", "grid": 16})
        report.add_section("flight", FlightRecord(solver="pcg", indices=[0], residuals=[1.0]))
        report.add_metric("pcg.iterations", 42)
        report.add_metric("kernels.hot_allocs", 0)
        return report

    def test_save_load_roundtrip(self, tmp_path):
        report = self._sample()
        path = report.save(tmp_path / "run.json")
        loaded = RunReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.label == "sample"
        assert loaded.metrics["pcg.iterations"] == 42.0
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-run-report"
        assert doc["version"] == 2

    def test_from_run_collects_flight_and_metrics(self, dist_poisson16):
        _, _, da, b = dist_poisson16
        with tracing() as (tracer, metrics):
            result = pcg(da, b)
            report = RunReport.from_run(tracer, metrics, label="live", grid=16)
        assert report.meta["grid"] == 16
        assert report.sections["flight"]["iterations"] == result.iterations
        assert "pcg.solve" in report.sections["timers"]
        assert report.metrics["pcg.iterations"] == float(result.iterations)

    def test_from_trace_doc_via_load(self, tmp_path, dist_poisson16):
        from repro.instrument import write_json_trace

        _, _, da, b = dist_poisson16
        with tracing() as (tracer, metrics):
            result = pcg(da, b)
            path = write_json_trace(tmp_path / "trace.json", tracer, metrics)
        report = RunReport.load(path)
        assert report.meta["source"] == "trace"
        assert report.sections["flight"]["iterations"] == result.iterations
        assert report.metrics["pcg.iterations"] == float(result.iterations)

    def test_from_bench_via_load(self, tmp_path):
        doc = {
            "suite": "kernels",
            "config": {"sizes": [12], "reps": 1},
            "summary": {"pcg_hot_allocs": 0, "pcg.iterations": 30,
                        "spmv_speedup_largest": 1.5, "quick": True},
            "kernels": {"pcg": {"iterations": 30, "workspace_allocs_hot": 0}},
        }
        path = tmp_path / "BENCH_kernels.json"
        path.write_text(json.dumps(doc))
        report = RunReport.load(path)
        assert report.meta["suite"] == "kernels"
        assert report.meta["config"] == {"sizes": [12], "reps": 1}
        assert report.metrics == {
            "kernels.pcg_hot_allocs": 0.0,
            "kernels.pcg.iterations": 30.0,
            "kernels.spmv_speedup_largest": 1.5,
        }  # booleans are not metrics
        assert report.sections["kernels"]["pcg"]["iterations"] == 30

    @pytest.mark.parametrize("doc", [
        {"suite": "kernels", "summary": {}},  # no section named after the suite
        {"suite": "kernels", "kernels": {}},  # no summary
        {"summary": {}, "kernels": {}},  # no suite
    ])
    def test_from_bench_rejects_other_shapes(self, doc):
        with pytest.raises(ReportError, match="not a benchmark suite document"):
            RunReport.from_bench(doc)

    def test_version_1_documents_rejected(self, tmp_path):
        # nothing writes v1 reports any more: reading one is an error that
        # names the version, like any other unsupported schema
        path = tmp_path / "v1.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro-run-report",
                    "version": 1,
                    "meta": {"label": "old"},
                    "sections": {"flight": {"iterations": 12}},
                    "metrics": {"pcg.iterations": 12.0},
                }
            )
        )
        with pytest.raises(ReportError, match="version 1"):
            RunReport.load(path)

    def test_from_solver_bench_via_load(self, tmp_path):
        doc = {
            "suite": "solver",
            "config": {"matrices": ["msdoor"], "filter": 0.01},
            "solver": {"msdoor": {"methods": {"fsai": {"iterations": 106}}}},
            "summary": {
                "msdoor.fsai.iterations": 106,
                "msdoor.comm.iterations": 99,
                "msdoor.comm.invariant": 1,
            },
        }
        path = tmp_path / "BENCH_solver.json"
        path.write_text(json.dumps(doc))
        report = RunReport.load(path)
        assert report.meta["suite"] == "solver"
        assert report.metrics["solver.msdoor.fsai.iterations"] == 106.0
        assert report.metrics["solver.msdoor.comm.invariant"] == 1.0
        assert report.sections["solver"]["msdoor"]["methods"]["fsai"]["iterations"] == 106

    def test_attach_timeline_and_attribution(self):
        from repro.observe import MethodFacts, Timeline, attribute
        from repro.observe.timeline import Segment

        report = self._sample()
        timeline = Timeline(
            [
                Segment(0, "spmd.compute", "compute", 0.0, 2.0),
                Segment(1, "spmd.halo.wait", "wait", 0.0, 1.5, src=0),
            ]
        )
        report.attach_timeline(timeline)
        assert report.sections["timeline"]["ranks"] == 2
        assert report.metrics["timeline.makespan_seconds"] == pytest.approx(2.0)
        assert report.metrics["timeline.max_wait_seconds"] == pytest.approx(1.5)
        assert "timeline.critical_path_seconds" in report.metrics

        verdict = attribute(
            [
                MethodFacts(method="FSAI", iterations=30),
                MethodFacts(method="FSAIE-Comm", iterations=25, nnz=10,
                            base_nnz=8),
            ]
        )
        report.attach_attribution(verdict)
        section = report.sections["attribution"]
        assert section["baseline"] == "FSAI"
        assert "headline" in section
        assert report.metrics["attribution.fsaie-comm.iterations"] == 25.0
        assert report.metrics["attribution.suspects"] == 0.0
        # the attached report still round-trips through its document form
        assert RunReport.from_dict(report.to_dict()).to_dict() == report.to_dict()

    def test_load_missing_file_raises_report_error(self, tmp_path):
        with pytest.raises(ReportError, match="cannot read"):
            RunReport.load(tmp_path / "absent.json")

    def test_load_malformed_json_raises_report_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReportError, match="not valid JSON"):
            RunReport.load(path)

    def test_load_unrecognised_document(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ReportError, match="unrecognised"):
            RunReport.load(path)

    def test_load_future_schema_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps({"format": "repro-run-report", "version": 99, "meta": {}})
        )
        with pytest.raises(ReportError, match="version 99"):
            RunReport.load(path)

    def test_load_future_trace_version(self, tmp_path):
        path = tmp_path / "future_trace.json"
        path.write_text(json.dumps({"format": "repro-trace", "version": 99}))
        with pytest.raises(ReportError, match="newer"):
            RunReport.load(path)

    @pytest.mark.parametrize(
        "spans, message",
        [
            ([{"name": "pcg.solve", "start": 2.0, "end": 1.0, "tags": {}}],
             "ends before it starts"),
            ({}, "'spans' must be a list"),
        ],
        ids=["span-ends-before-start", "spans-not-a-list"],
    )
    def test_load_validates_trace_documents(self, tmp_path, spans, message):
        """A trace goes through the one trace reader, and its complaint
        comes back as a ReportError naming the file."""
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(
            {"format": "repro-trace", "version": 1, "spans": spans, "metrics": []}
        ))
        with pytest.raises(ReportError, match=message) as exc:
            RunReport.load(path)
        assert str(path) in str(exc.value)

    def test_add_section_rejects_non_dict(self):
        with pytest.raises(TypeError):
            self._sample().add_section("bad", 3)

    def test_compare_within_tolerance_passes(self):
        base, other = self._sample(), self._sample()
        other.metrics["pcg.iterations"] = 44.0
        comparison = base.compare(other, {"pcg.iterations": {"rel": 0, "abs": 2}})
        assert comparison.passed
        assert [d.name for d in comparison.deltas] == sorted(base.metrics)

    def test_compare_flags_regression_and_missing(self):
        base, other = self._sample(), self._sample()
        other.metrics["kernels.hot_allocs"] = 5.0
        del other.metrics["pcg.iterations"]
        comparison = base.compare(other)
        assert not comparison.passed
        failed = {d.name for d in comparison.regressions()}
        assert failed == {"kernels.hot_allocs", "pcg.iterations"}
        missing = next(d for d in comparison.deltas if d.name == "pcg.iterations")
        assert missing.other is None and not missing.ok

    def test_compare_relative_tolerance_and_bare_names(self):
        base = RunReport(meta={"label": "a"}, metrics={"x{rank=0}": 100.0})
        other = RunReport(meta={"label": "b"}, metrics={"x{rank=0}": 104.0})
        assert not base.compare(other).passed
        # tolerance matches the bare name before the tag suffix
        assert base.compare(other, {"x": 0.05}).passed
        assert base.compare(other, default_rel=0.05).passed

    def test_compare_metrics_restriction(self):
        base, other = self._sample(), self._sample()
        other.metrics["kernels.hot_allocs"] = 9.0
        comparison = base.compare(other, metrics=["pcg.iterations"])
        assert comparison.passed
        with pytest.raises(KeyError):
            base.compare(other, metrics=["no.such.metric"])

    def test_extra_metrics_in_other_are_ignored(self):
        base, other = self._sample(), self._sample()
        other.metrics["brand.new"] = 1.0
        assert base.compare(other).passed

    def test_render_table_and_only_failures(self):
        base, other = self._sample(), self._sample()
        other.metrics["kernels.hot_allocs"] = 5.0
        comparison = base.compare(other)
        text = comparison.render()
        assert "FAIL" in text and "kernels.hot_allocs" in text
        filtered = comparison.render(only_failures=True)
        assert "pcg.iterations" not in filtered
        passing = base.compare(self._sample())
        assert "within tolerance" in passing.render(only_failures=True)
        assert "PASS" in passing.render()

    def test_render_shows_both_tolerances_and_the_absolute_delta(self):
        base, other = self._sample(), self._sample()
        other.metrics["pcg.iterations"] = 45.0
        comparison = base.compare(other, {"pcg.iterations": {"rel": 0, "abs": 2}})
        (row,) = comparison.regressions()
        assert row.delta == 3.0  # other − base, not a relative change
        header, rule, line = comparison.render(only_failures=True).splitlines()[1:4]
        assert header.split() == ["metric", "base", "other", "delta", "rel_tol",
                                  "abs_tol", "status"]
        assert line.split() == ["pcg.iterations", "42", "45", "+3", "0", "2", "FAIL"]

    def test_to_text_and_markdown(self):
        report = self._sample()
        text = report.to_text()
        assert "run report: sample" in text
        assert "pcg.iterations" in text
        md = report.to_markdown()
        assert "# Run report — sample" in md
        assert "| `pcg.iterations` | 42 |" in md
        assert "## flight" in md

    def test_flatten_metrics_histogram_subkeys(self):
        with tracing() as (_, metrics):
            metrics.counter("a", rank=1).inc(3)
            metrics.histogram("h").observe(2.0)
            metrics.histogram("h").observe(4.0)
            flat = flatten_metrics(metrics.collect())
        assert flat["a{rank=1}"] == 3.0
        assert flat["h.count"] == 2.0
        assert flat["h.sum"] == 6.0
