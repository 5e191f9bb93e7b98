"""Smoke tests for the kernel microbenchmark suite and its gate.

Marked ``suite_smoke`` so they can be selected (or skipped) separately::

    PYTHONPATH=src python -m pytest -m suite_smoke -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernels import format_summary, run_suite, write_suite

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "BENCH_kernels_recorded.json"

pytestmark = pytest.mark.suite_smoke


def _gate(*args):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_bench.py"), "kernels",
         *map(str, args)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def test_run_suite_quick_shape(tmp_path):
    result = run_suite(sizes=(12, 16), reps=1, quick=True)
    assert set(result) == {"suite", "config", "summary", "kernels"}
    kernels = result["kernels"]
    assert kernels["spmv"], "spmv section must not be empty"
    for rec in kernels["spmv"]:
        assert rec["planned_s"] > 0.0
        assert rec["speedup"] > 0.0
    summary = result["summary"]
    assert summary["pcg_hot_allocs"] == summary["pcg.workspace_allocs_hot"] == 0
    assert kernels["pcg"]["iterations"] == summary["pcg.iterations"] > 0
    assert kernels["pcg"]["workspace_s"] > 0.0
    assert "spmv_speedup_largest" in summary
    assert "backend" not in result["config"] and "backend" not in kernels["setup"]
    assert kernels["setup"]["batched_s"] > 0.0
    refilter = kernels["setup"]["refilter"]
    assert [rec["filter"] for rec in refilter] == [0.01, 0.05, 0.1, 0.2]
    for rec in refilter:
        assert rec["ms"] > 0.0
        assert rec["rows_kept"] + rec["rows_base"] + rec["rows_solved"] == kernels["setup"]["n"]
        for key in ("rows_kept", "rows_base", "rows_solved", "ms"):
            assert summary[f"refilter.{rec['filter']}.{key}"] == rec[key]
    # a larger Filter leaves fewer rows with surviving extension entries
    assert refilter[0]["rows_solved"] > refilter[-1]["rows_solved"]
    fsai, comm = kernels["precond_apply"]
    assert (fsai["method"], comm["method"]) == ("FSAI", "FSAIE-Comm")
    for rec in (fsai, comm):
        assert rec["nnz"] > 0 and rec["apply_us"] > 0.0
        assert rec["ns_per_entry"] == pytest.approx(1e3 * rec["apply_us"] / rec["nnz"])
    assert summary["precond_nnz_ratio"] == comm["nnz"] / fsai["nnz"] > 1.0
    assert summary["precond_apply_ratio"] > 0.0

    path = write_suite(result, tmp_path / "BENCH_kernels.json")
    loaded = json.loads(Path(path).read_text())
    assert loaded["summary"] == summary

    text = format_summary(result)
    assert "kernel microbenchmarks" in text
    assert "precond apply FSAIE-Comm" in text and "x the entries in" in text
    assert text.count("refilter Filter") == 4


def test_kernels_gate_is_clean():
    # a fresh warm-workspace solve: zero hot-loop allocations, counts exact
    proc = _gate("--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK: kernels" in proc.stdout


def test_write_suite_emits_companion_report(tmp_path):
    result = run_suite(sizes=(12,), reps=1, quick=True)
    path = write_suite(result, tmp_path / "BENCH_kernels.json")
    from repro.observe import RunReport

    report = RunReport.load(Path(path).with_suffix(".report.json"))
    assert report.metrics["kernels.pcg_hot_allocs"] == 0.0
    assert report.meta["suite"] == "kernels"
    assert "spmv" in report.sections["kernels"]


def test_bench_regression_gate_passes_on_recorded_fixture():
    proc = _gate("--bench", FIXTURE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK: kernels: 16 key(s) within policy" in proc.stdout


def test_bench_regression_gate_fails_on_alloc_regression(tmp_path):
    doc = json.loads(FIXTURE.read_text())
    doc["summary"]["pcg_hot_allocs"] = 3
    doc["summary"]["pcg.workspace_allocs_hot"] = 3
    mutated = tmp_path / "BENCH_regressed.json"
    mutated.write_text(json.dumps(doc))
    proc = _gate("--bench", mutated)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL" in proc.stderr
    assert "kernels.pcg_hot_allocs" in proc.stdout
    assert "kernels.pcg.workspace_allocs_hot" in proc.stdout


def test_bench_regression_gate_fails_on_refilter_drift(tmp_path):
    # one more row solved again than recorded: the reuse stopped firing somewhere
    doc = json.loads(FIXTURE.read_text())
    doc["summary"]["refilter.0.01.rows_solved"] += 1
    doc["summary"]["refilter.0.01.rows_kept"] -= 1
    mutated = tmp_path / "BENCH_regressed.json"
    mutated.write_text(json.dumps(doc))
    proc = _gate("--bench", mutated)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "kernels.refilter.0.01.rows_solved" in proc.stdout


def test_bench_regression_gate_rejects_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = _gate("--bench", bad)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
