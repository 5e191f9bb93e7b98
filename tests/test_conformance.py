"""Model-conformance reports: ratios, verdicts, suspects, persistence."""

from __future__ import annotations

import json
import math

import pytest

from repro.observe import (
    ClusterTelemetry,
    ConformanceError,
    ConformanceReport,
    MethodFacts,
    RankCountConformance,
    RunReport,
    attribute,
    conformance_samples,
)
from repro.observe.conformance import CONFORMANCE_FORMAT, PhaseConformance
from repro.observe.stream import RankTelemetry


def _cluster(ranks, *, wait=0.010, compute=0.100, reduction=0.020,
             straggler=None):
    """A hand-built aggregate: uniform ranks, optionally one straggler."""
    def one(rank):
        t = RankTelemetry(rank)
        w = straggler[1] if straggler and rank == straggler[0] else wait
        t.observe("wait.halo", w)
        t.observe("compute", compute)
        t.observe("reduction", reduction)
        return ClusterTelemetry.from_rank(t)

    acc = one(0)
    for r in range(1, ranks):
        acc.merge(one(r))
    return acc


def _entry(ranks=8, *, predicted=None, extras=None, **cluster_kw):
    return RankCountConformance.from_cluster(
        ranks=ranks,
        iterations=10,
        predicted=predicted
        or {"compute": 0.100, "halo": 0.010, "reduction": 0.020},
        cluster=_cluster(ranks, **cluster_kw),
        extras=extras,
    )


class TestPhaseConformance:
    def test_ratio(self):
        assert PhaseConformance("halo", 2.0, 1.0).ratio == pytest.approx(0.5)

    def test_zero_predicted_nonzero_measured_is_inf(self):
        assert math.isinf(PhaseConformance("halo", 0.0, 1.0).ratio)

    def test_both_zero_is_one(self):
        assert PhaseConformance("halo", 0.0, 0.0).ratio == 1.0


class TestRankCountConformance:
    def test_measured_is_cluster_total_over_ranks(self):
        entry = _entry(ranks=8, compute=0.100)
        compute = entry.phase("compute")
        # 8 ranks x 0.100 s cluster-total, so per-rank measured is 0.100
        assert compute.measured_seconds == pytest.approx(0.100)
        assert compute.ratio == pytest.approx(1.0)

    def test_straggler_propagates(self):
        entry = _entry(ranks=32, straggler=(17, 9.0))
        assert [s["rank"] for s in entry.stragglers] == [17]

    def test_round_trip(self):
        entry = _entry(extras={"halo_invariant": True})
        clone = RankCountConformance.from_dict(
            json.loads(json.dumps(entry.to_dict()))
        )
        assert clone.ranks == entry.ranks
        assert clone.ratios() == pytest.approx(entry.ratios())
        assert clone.extras == entry.extras


class TestConformanceReport:
    def test_no_verdicts_when_shares_match(self):
        report = ConformanceReport(entries=[_entry()])
        assert report.verdicts() == []
        assert "verdicts: none" in report.render()

    def test_share_drift_names_the_phase(self):
        # model says compute-dominated; measurement is halo-dominated
        entry = _entry(
            predicted={"compute": 0.100, "halo": 0.001, "reduction": 0.001},
            wait=0.200, compute=0.010, reduction=0.001,
        )
        names = {v["name"] for v in ConformanceReport(entries=[entry]).verdicts()}
        assert "halo-underpredicted" in names
        assert "compute-overpredicted" in names

    def test_global_scale_factor_triggers_nothing(self):
        # 50x slower across the board: ratios explode, shares are identical
        entry = _entry(
            predicted={"compute": 0.002, "halo": 0.0002, "reduction": 0.0004}
        )
        report = ConformanceReport(entries=[entry])
        assert all(r > 10 for r in entry.ratios().values())
        assert report.verdicts() == []

    def test_straggler_and_flag_verdicts(self):
        entry = _entry(
            ranks=32, straggler=(3, 9.0),
            extras={"halo_invariant": False, "telemetry_excluded": True},
        )
        names = {v["name"] for v in ConformanceReport(entries=[entry]).verdicts()}
        assert "straggler-ranks" in names
        assert "halo-invariant-violated" in names
        assert "telemetry-excluded-violated" not in names

    def test_suspects_feed_explain(self):
        entry = _entry(
            ranks=32, straggler=(3, 9.0),
            extras={"halo_invariant": False},
        )
        report = ConformanceReport(entries=[entry])
        suspects = report.to_suspects()
        assert suspects and all(
            s.name.startswith("conformance:") and s.method == "r32"
            for s in suspects
        )
        facts = [MethodFacts(method="FSAI", iterations=10)]
        verdict = attribute(facts, conformance=report)
        got = {s.name for s in verdict.suspects}
        assert {s.name for s in suspects} <= got

    def test_save_load_round_trip(self, tmp_path):
        report = ConformanceReport(
            entries=[_entry(ranks=4), _entry(ranks=16)],
            meta={"case": "unit"},
        )
        path = report.save(tmp_path / "conf.json")
        clone = ConformanceReport.load(path)
        assert clone.meta["case"] == "unit"
        assert [e.ranks for e in clone.entries] == [4, 16]
        assert json.loads(path.read_text())["format"] == CONFORMANCE_FORMAT

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(ConformanceError):
            ConformanceReport.load(path)

    def test_prom_samples_cover_ratios_and_verdicts(self):
        report = ConformanceReport(entries=[_entry(ranks=8)])
        samples = conformance_samples(report)
        names = {(s["name"], s["tags"].get("phase")) for s in samples}
        assert ("conformance.ratio", "compute") in names
        assert any(s["name"] == "conformance.verdicts" for s in samples)
        by_rank = [s for s in samples if s["tags"].get("ranks") == 8]
        assert by_rank


class TestRunReportIntegration:
    def _doc(self):
        report = ConformanceReport(entries=[_entry(ranks=8)])
        return {
            "suite": "conformance",
            "config": {"grid": 12},
            "conformance": report.to_dict(),
            "summary": {
                "r8.iterations": 10,
                "r8.ratio.compute": 1.0,
                "r8.halo_invariant": 1,
            },
        }

    def test_from_conformance_bench(self):
        run = RunReport.from_bench(self._doc())
        assert run.meta["suite"] == "conformance"
        assert run.metrics["conformance.r8.iterations"] == 10
        assert "conformance" in run.sections

    def test_load_dispatches_on_conformance_key(self, tmp_path):
        path = tmp_path / "BENCH_conformance.json"
        path.write_text(json.dumps(self._doc()))
        run = RunReport.load(path)
        assert run.meta["suite"] == "conformance"
        assert run.sections["conformance"]["entries"][0]["ranks"] == 8
