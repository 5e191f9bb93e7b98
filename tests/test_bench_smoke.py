"""Smoke tests for the microbenchmark suite and the no-alloc CI gate.

Marked ``bench_smoke`` so they can be selected (or skipped) separately::

    PYTHONPATH=src python -m pytest -m bench_smoke -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernels import format_summary, run_suite, write_suite

REPO_ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.bench_smoke


def test_run_suite_quick_shape(tmp_path):
    result = run_suite(sizes=(12, 16), reps=1, quick=True)
    assert result["spmv"], "spmv section must not be empty"
    for rec in result["spmv"]:
        assert rec["planned_s"] > 0.0
        assert rec["speedup"] > 0.0
    summary = result["summary"]
    assert summary["pcg_hot_allocs"] == 0
    assert result["pcg"]["iterations"] > 0 and result["pcg"]["workspace_s"] > 0.0
    assert "spmv_speedup_largest" in summary
    assert "backend" not in result["config"] and "backend" not in result["setup"]
    assert result["setup"]["batched_s"] > 0.0
    refilter = result["setup"]["refilter"]
    assert [rec["filter"] for rec in refilter] == [0.01, 0.05, 0.1, 0.2]
    for rec in refilter:
        assert rec["ms"] > 0.0
        assert rec["rows_kept"] + rec["rows_base"] + rec["rows_solved"] == result["setup"]["n"]
    # a larger Filter leaves fewer rows with surviving extension entries
    assert refilter[0]["rows_solved"] > refilter[-1]["rows_solved"]
    fsai, comm = result["precond_apply"]
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


def test_check_no_alloc_script_passes():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_no_alloc.py"),
         "--grid", "16"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "allocation-free" in proc.stdout


def test_check_no_alloc_script_fails_on_tight_baseline(tmp_path):
    # A negative allowance can never be met, so the gate must trip.
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"hot_allocs_per_iteration": -1.0}))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_no_alloc.py"),
         "--grid", "16", "--baseline", str(baseline)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    assert "FAIL" in proc.stderr


def test_write_suite_emits_companion_report(tmp_path):
    result = run_suite(sizes=(12,), reps=1, quick=True)
    path = write_suite(result, tmp_path / "BENCH_kernels.json")
    from repro.observe import RunReport

    report = RunReport.load(Path(path).with_suffix(".report.json"))
    assert report.metrics["bench.pcg_hot_allocs"] == 0.0
    assert "bench" in report.sections


def test_check_no_alloc_emits_run_report(tmp_path):
    out = tmp_path / "gate.json"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_no_alloc.py"),
         "--grid", "16", "--report", str(out)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    from repro.observe import RunReport

    report = RunReport.load(out)
    assert report.metrics["kernels.hot_allocs_per_iteration"] == 0.0
    assert report.meta["label"] == "no-alloc-gate"


def test_bench_regression_gate_passes_on_recorded_fixture():
    fixture = REPO_ROOT / "tests" / "fixtures" / "BENCH_kernels_recorded.json"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_bench_regression.py"),
         "--bench", str(fixture)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK: benchmark counters within tolerance" in proc.stdout


def test_bench_regression_gate_fails_on_alloc_regression(tmp_path):
    fixture = REPO_ROOT / "tests" / "fixtures" / "BENCH_kernels_recorded.json"
    doc = json.loads(fixture.read_text())
    doc["summary"]["pcg_hot_allocs"] = 3
    doc["pcg"]["workspace_allocs_hot"] = 3
    mutated = tmp_path / "BENCH_regressed.json"
    mutated.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_bench_regression.py"),
         "--bench", str(mutated)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL" in proc.stderr
    assert "bench.pcg_hot_allocs" in proc.stdout


def test_bench_regression_gate_fails_on_refilter_drift(tmp_path):
    # one more row solved again than recorded: the reuse stopped firing somewhere
    fixture = REPO_ROOT / "tests" / "fixtures" / "BENCH_kernels_recorded.json"
    doc = json.loads(fixture.read_text())
    doc["setup"]["refilter"][0]["rows_solved"] += 1
    doc["setup"]["refilter"][0]["rows_kept"] -= 1
    mutated = tmp_path / "BENCH_regressed.json"
    mutated.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_bench_regression.py"),
         "--bench", str(mutated)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "bench.refilter.0.01.rows_solved" in proc.stdout


def test_bench_regression_gate_rejects_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_bench_regression.py"),
         "--bench", str(bad)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
