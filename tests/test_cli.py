"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.cli import build_parser, load_matrix, main
from repro.sparse import CSRMatrix, write_matrix_market

from conftest import build_poisson2d


class TestLoadMatrix:
    def parse(self, *argv):
        return build_parser().parse_args(list(argv))

    def test_generate_poisson(self):
        args = self.parse("info", "--generate", "poisson2d:6")
        assert load_matrix(args).nrows == 36

    def test_generate_elasticity(self):
        args = self.parse("info", "--generate", "elasticity3d:2,2,2")
        assert load_matrix(args).nrows == 3 * 27

    def test_generate_catalog(self):
        args = self.parse("info", "--generate", "catalog:gyro")
        assert load_matrix(args).nrows > 0

    def test_generate_catalog_large(self):
        args = self.parse("info", "--generate", "catalog-large:ldoor")
        assert load_matrix(args).nrows > 0

    def test_matrix_file(self, tmp_path):
        mat = build_poisson2d(5)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, mat, symmetric=True)
        args = self.parse("info", "--matrix", str(path))
        assert load_matrix(args).allclose(mat)

    def test_unknown_generator_fails(self):
        from repro.errors import ReproError

        args = self.parse("info", "--generate", "banana:3")
        with pytest.raises(ReproError):
            load_matrix(args)


class TestCommands:
    def test_solve_exit_zero(self, capsys):
        code = main(["solve", "--generate", "poisson2d:10", "--ranks", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged=True" in out
        assert "modeled time" in out

    def test_solve_each_method(self, capsys):
        for method in ("fsai", "fsaie", "comm"):
            code = main(
                ["solve", "--generate", "poisson2d:8", "--ranks", "2", "--method", method]
            )
            assert code == 0

    def test_compare_prints_table_and_invariance(self, capsys):
        code = main(["compare", "--generate", "poisson2d:10", "--ranks", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FSAIE-Comm" in out
        assert "communication scheme unchanged by FSAIE-Comm: True" in out

    def test_info(self, capsys):
        code = main(["info", "--generate", "poisson2d:6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "symmetric   : True" in out

    def test_missing_source_is_error(self, capsys):
        code = main(["info"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_static_filter_flag(self, capsys):
        code = main(
            ["solve", "--generate", "poisson2d:8", "--ranks", "2", "--static",
             "--filter", "0.1"]
        )
        assert code == 0

    def test_machine_selection(self, capsys):
        code = main(
            ["compare", "--generate", "poisson2d:8", "--ranks", "2",
             "--machine", "a64fx"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "a64fx" in out


class TestExport:
    def test_export_named_subset(self, tmp_path, capsys):
        code = main(["export", "--output", str(tmp_path), "--names", "gyro"])
        assert code == 0
        assert (tmp_path / "gyro.mtx").exists()
        from repro.sparse import read_matrix_market

        mat = read_matrix_market(tmp_path / "gyro.mtx")
        assert mat.nrows == 700

    def test_export_unknown_name(self, tmp_path, capsys):
        code = main(["export", "--output", str(tmp_path), "--names", "nope"])
        assert code == 2
        assert "unknown matrices" in capsys.readouterr().err

    def test_exported_file_solves(self, tmp_path, capsys):
        main(["export", "--output", str(tmp_path), "--names", "qa8fm"])
        code = main(
            ["solve", "--matrix", str(tmp_path / "qa8fm.mtx"), "--ranks", "2"]
        )
        assert code == 0


class TestTrace:
    def test_chrome_trace_written(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            ["trace", "--workload", "poisson2d:10", "--nparts", "4",
             "--output", str(out)]
        )
        assert code == 0
        report = capsys.readouterr().out
        assert "iteration spans" in report

        import json

        doc = json.loads(out.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        for phase in ("precond.pattern", "precond.extension",
                      "precond.filtering", "precond.factor",
                      "pcg.iteration", "halo.exchange"):
            assert phase in names

    def test_trace_halo_bytes_match_tracker(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            ["trace", "--workload", "poisson2d:10", "--nparts", "4",
             "--format", "json", "--output", str(out)]
        )
        assert code == 0
        report = capsys.readouterr().out

        from repro.instrument import read_json_trace

        doc = read_json_trace(out)
        halo = sum(
            s["tags"]["bytes"] for s in doc["spans"] if s["name"] == "halo.exchange"
        )
        assert f"(tracker: {halo} bytes)" in report


class TestReport:
    def _write_report(self, tmp_path, name="run.json", **metrics):
        from repro.observe import RunReport

        report = RunReport(meta={"label": name.rsplit(".", 1)[0]})
        for key, value in (metrics or {"pcg.iterations": 42.0}).items():
            report.add_metric(key, value)
        return report.save(tmp_path / name)

    def test_render_text(self, tmp_path, capsys):
        path = self._write_report(tmp_path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run report: run" in out
        assert "pcg.iterations" in out

    def test_render_markdown(self, tmp_path, capsys):
        path = self._write_report(tmp_path)
        assert main(["report", str(path), "--format", "markdown"]) == 0
        assert "# Run report — run" in capsys.readouterr().out

    def test_missing_file_is_clear_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_malformed_json_is_clear_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{definitely not json")
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_future_schema_version_is_clear_error(self, tmp_path, capsys):
        import json as _json

        path = tmp_path / "future.json"
        path.write_text(
            _json.dumps({"format": "repro-run-report", "version": 99, "meta": {}})
        )
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "version 99" in err

    @pytest.mark.parametrize(
        "spans",
        [[{"name": "pcg.solve", "start": 2.0, "end": 1.0, "tags": {}}], {}],
        ids=["span-ends-before-start", "spans-not-a-list"],
    )
    def test_malformed_trace_is_clear_error(self, tmp_path, capsys, spans):
        import json as _json

        path = tmp_path / "trace.json"
        path.write_text(_json.dumps(
            {"format": "repro-trace", "version": 1, "spans": spans, "metrics": []}
        ))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(path) in err
        assert "Traceback" not in err

    def test_compare_pass_and_fail_exit_codes(self, tmp_path, capsys):
        base = self._write_report(tmp_path, "base.json", **{"pcg.iterations": 40.0})
        same = self._write_report(tmp_path, "same.json", **{"pcg.iterations": 40.0})
        worse = self._write_report(tmp_path, "worse.json", **{"pcg.iterations": 80.0})
        assert main(["report", str(base), "--compare", str(same)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["report", str(base), "--compare", str(worse)]) == 1
        assert "FAIL" in capsys.readouterr().out
        # a generous tolerance turns the failure into a pass
        assert main(
            ["report", str(base), "--compare", str(worse),
             "--tol", "pcg.iterations=1.5"]
        ) == 0

    def test_compare_bad_tolerance_spec(self, tmp_path, capsys):
        base = self._write_report(tmp_path, "base.json")
        other = self._write_report(tmp_path, "other.json")
        for spec in ("pcg.iterations", "=0.5", "pcg.iterations=abc"):
            assert main(
                ["report", str(base), "--compare", str(other), "--tol", spec]
            ) == 2
            assert "NAME=RELATIVE_TOLERANCE" in capsys.readouterr().err

    def test_compare_missing_file_is_clear_error(self, tmp_path, capsys):
        base = self._write_report(tmp_path)
        assert main(
            ["report", str(base), "--compare", str(tmp_path / "absent.json")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_compare_unreadable_file_is_clear_error(self, tmp_path, capsys):
        base = self._write_report(tmp_path)
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\x80\x81\xfe\xff not utf-8")
        assert main(["report", str(base), "--compare", str(binary)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestTimeline:
    def test_timeline_prints_gantt_and_critical_path(self, capsys):
        code = main(
            ["timeline", "--generate", "poisson2d:8", "--ranks", "2",
             "--method", "fsai"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "static halo critical path" in out
        assert "legend: C compute" in out
        assert "critical path" in out

    def test_timeline_json_and_prom_outputs(self, tmp_path, capsys):
        tl_path = tmp_path / "t.json"
        prom_path = tmp_path / "t.prom"
        code = main(
            ["timeline", "--generate", "poisson2d:8", "--ranks", "2",
             "--json", str(tl_path), "--prom", str(prom_path)]
        )
        assert code == 0
        from repro.observe import Timeline

        tl = Timeline.load(tl_path)
        assert tl.ranks == [0, 1]
        text = prom_path.read_text()
        assert "repro_timeline_makespan_seconds" in text
        assert text.endswith("# EOF\n")

    def test_timeline_load_renders_saved_document(self, tmp_path, capsys):
        tl_path = tmp_path / "t.json"
        assert main(
            ["timeline", "--generate", "poisson2d:8", "--ranks", "2",
             "--json", str(tl_path)]
        ) == 0
        capsys.readouterr()
        assert main(["timeline", "--load", str(tl_path)]) == 0
        out = capsys.readouterr().out
        assert "legend: C compute" in out

    def test_timeline_load_missing_file_is_clear_error(self, tmp_path, capsys):
        assert main(["timeline", "--load", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestExplain:
    def test_explain_prints_verdict(self, capsys):
        code = main(["explain", "--generate", "poisson2d:12", "--ranks", "4",
                     "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "attribution verdict" in out
        assert "FSAIE-Comm" in out
        assert "comm invariant    : True" in out

    def test_explain_json_roundtrips(self, tmp_path, capsys):
        path = tmp_path / "verdict.json"
        code = main(["explain", "--generate", "poisson2d:8", "--ranks", "2",
                     "--json", str(path)])
        assert code == 0
        from repro.observe import AttributionVerdict

        verdict = AttributionVerdict.load(path)
        assert {f.method for f in verdict.facts} == {"FSAI", "FSAIE", "FSAIE-Comm"}


class TestLadders:
    """``repro conformance`` / ``repro cache`` print what the shared ladder
    functions of :mod:`repro.perfmodel.ladders` return."""

    @pytest.fixture
    def returned(self, monkeypatch):
        """Record each ladder's return value and every audited halo matrix."""
        from repro.perfmodel import ladders

        seen = {"reports": [], "audited": []}
        for name in ("conformance_ladder", "cache_ladder"):
            def spy(*args, _real=getattr(ladders, name), **kwargs):
                out = _real(*args, **kwargs)
                seen["reports"].append(out[0])
                return out
            monkeypatch.setattr(ladders, name, spy)
        real_update = ladders.spmd_halo_update

        def update(mat, x, tracker=None, **kwargs):
            seen["audited"].append(mat)
            return real_update(mat, x, tracker, **kwargs)
        monkeypatch.setattr(ladders, "spmd_halo_update", update)
        return seen

    def test_conformance_json_is_the_ladder_report(self, tmp_path, capsys, returned):
        import json

        path = tmp_path / "conformance.json"
        assert main(["conformance", "--generate", "poisson2d:16", "--ladder", "4,8",
                     "--json", str(path)]) == 0
        (report,) = returned["reports"]
        assert json.loads(path.read_text()) == json.loads(json.dumps(report.to_dict()))
        assert [e.ranks for e in report.entries] == [4, 8]
        for entry in report.entries:
            assert entry.extras["invariant"] and entry.extras["halo_invariant"]
            assert entry.extras["telemetry_excluded"]
        # per rung: FSAI and FSAIE-Comm, each G and Gᵀ
        assert len(returned["audited"]) == 2 * 4
        assert "ranks     8:" in capsys.readouterr().out

    def test_cache_json_is_the_ladder_report(self, tmp_path, returned):
        import json

        path = tmp_path / "cache.json"
        assert main(["cache", "--generate", "poisson2d:16", "--json", str(path)]) == 0
        (report,) = returned["reports"]
        assert json.loads(path.read_text()) == json.loads(json.dumps(report.to_dict()))
        assert report.line_sizes() == [64, 256]
        assert all(c["ok"] for c in report.claims())

    @pytest.mark.parametrize("argv", [
        ["conformance", "--ladder", "4,x"],
        ["conformance", "--ladder", ""],
        ["cache", "--line-bytes", "64,big"],
        ["cache", "--ladder", "fsai,spai"],
    ])
    def test_malformed_ladder_option_is_clear_error(self, argv, capsys):
        assert main([*argv, "--generate", "poisson2d:8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestServe:
    ARGV = ["serve", "--generate", "poisson2d:12", "--requests", "6", "--variants", "3"]

    def test_serve_prints_the_cache_counts(self, capsys):
        assert main(self.ARGV) == 0
        out = capsys.readouterr().out
        assert "run report: serve" in out
        # one structure build, two more value variants, each audited once
        for metric, value in (("serve.structure_misses", 1), ("serve.structure_hits", 5),
                              ("serve.system_misses", 2), ("serve.system_hits", 4),
                              ("serve.audits", 2), ("serve.audit_violations", 0)):
            assert re.search(rf"{re.escape(metric)}\s+{value}\b", out), metric

    def test_serve_json_loads_through_run_report(self, tmp_path, capsys):
        from repro.observe import RunReport

        path = tmp_path / "serve.json"
        assert main([*self.ARGV, "--json", str(path)]) == 0
        report = RunReport.load(path)
        assert report.meta["label"] == "serve"
        assert report.metrics["serve.solves"] == 6
        assert report.metrics["serve.audits"] == 2
        assert report.metrics["serve.iterations_total"] > 0
        assert main(["report", str(path)]) == 0

    def test_old_serve_report_format_is_clear_error(self, tmp_path, capsys):
        path = tmp_path / "farm.json"
        path.write_text(json.dumps(
            {"format": "repro-serve-report", "version": 1, "meta": {}, "farm": {}}
        ))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "'repro-serve-report'" in err

    def test_missing_diagonal_is_clear_error(self, tmp_path, capsys):
        dense = 2 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1)
        dense[5, 5] = 0.0  # the last row stores no diagonal entry
        path = tmp_path / "nodiag.mtx"
        write_matrix_market(path, CSRMatrix.from_dense(dense), symmetric=True)
        assert main(["serve", "--matrix", str(path), "--ranks", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "row 5 " in err
