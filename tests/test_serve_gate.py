"""Smoke tier for the solve-farm serving suite and its regression gate.

Runs the first concurrency rung of :mod:`benchmarks.serve_bench`, checks
its deterministic claims (exact admission counts, exact warm-cache hit
pattern, clean §4 audits, no build by a timed warm request), then drives
``scripts/check_bench_regression.py --serve`` end-to-end against the
recorded baseline, exactly how CI invokes it.  Carries the
``serve_smoke`` marker — deselect with ``-m "not serve_smoke"`` for a
faster tier-1 run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))

from serve_bench import (  # noqa: E402
    ADMISSION_PATTERN,
    QUICK_RUNGS,
    VARIANTS,
    failed_claims,
    run_serve_suite,
    write_serve_suite,
)


@pytest.fixture(scope="module")
def quick_suite():
    return run_serve_suite(quick=True)


@pytest.mark.serve_smoke
def test_quick_suite_holds_serving_claims(quick_suite):
    result = quick_suite
    assert result["suite"] == "serve"
    assert result["config"]["rungs"] == list(QUICK_RUNGS)
    assert failed_claims(result) == [], failed_claims(result)
    s = result["summary"]
    # admission replay: the fixed pattern sheds exactly one request per
    # reason class beyond each deterministic bound (the unknown tenant has
    # no registered stats, so it rides outside the per-tenant shed total)
    assert (
        s["admission.admitted"] + s["admission.shed"]
        + s["admission.shed_unknown"]
    ) == len(ADMISSION_PATTERN)
    assert s["admission.shed_unknown"] == 1
    assert s["admission.shed_queue_full"] == 2
    assert s["admission.shed_tenant_budget"] == 2
    (n,) = QUICK_RUNGS
    # cold phase: caching disabled, every request pays the full setup
    assert s[f"r{n}.cold.structure_builds"] == n
    assert s[f"r{n}.cold.cache_hits"] == 0
    # warm phase: one pre-warm build, then everything hits the structure
    # tier; the invariance audit ran once per non-base value variant
    assert s[f"r{n}.warm.structure_misses"] == 1
    assert s[f"r{n}.warm.structure_hits"] == n + VARIANTS - 1
    assert s[f"r{n}.warm.audits"] == VARIANTS - 1
    assert s[f"r{n}.warm.audit_violations"] == 0
    assert s[f"r{n}.warm.schedule_invariant"] == 1
    # "a warm request costs an apply, not a set-up", in counts: the pre-warm
    # made every build, the timed requests hit the system tier
    assert s[f"r{n}.warm.system_misses"] == VARIANTS - 1
    assert s[f"r{n}.warm.system_hits"] == n + 1
    assert s[f"r{n}.warm.hit_rate"] == (n + VARIANTS - 1) / (n + VARIANTS)
    assert s[f"r{n}.warm_cold_speedup"] > 0.0
    # per-rung serve-report documents ride along for drill-down
    assert result["serve"][f"r{n}"]["cold"]["format"] == "repro-serve-report"
    assert result["serve"][f"r{n}"]["warm"]["format"] == "repro-serve-report"


@pytest.mark.serve_smoke
def test_claims_reject_builds_in_the_wrong_phase(quick_suite):
    (n,) = QUICK_RUNGS
    for key, delta in ((f"r{n}.warm.system_misses", 1),
                       (f"r{n}.cold.cache_hits", 1),
                       (f"r{n}.cold.structure_builds", -1)):
        summary = dict(quick_suite["summary"])
        summary[key] += delta
        assert failed_claims({**quick_suite, "summary": summary}), key


@pytest.mark.serve_smoke
def test_serve_gate_is_clean(quick_suite, tmp_path):
    bench = write_serve_suite(quick_suite, tmp_path / "BENCH_serve.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_bench_regression.py"),
         "--serve", "--bench", str(bench)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=480,
    )
    assert proc.returncode == 0, (
        f"check_bench_regression.py --serve failed:\n{proc.stdout}{proc.stderr}"
    )
    assert "serve cache:" in proc.stdout
    assert "OK: benchmark counters within tolerance of the baseline" in proc.stdout


@pytest.mark.serve_smoke
def test_gate_rejects_a_regressed_hit_count(quick_suite, tmp_path):
    doc = {
        **quick_suite,
        "summary": dict(quick_suite["summary"]),
    }
    (n,) = QUICK_RUNGS
    doc["summary"][f"r{n}.warm.structure_hits"] -= 1
    doc["summary"][f"r{n}.warm.structure_misses"] += 1
    bench = write_serve_suite(doc, tmp_path / "BENCH_regressed.json",
                              report=False)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_bench_regression.py"),
         "--serve", "--bench", str(bench)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=480,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
