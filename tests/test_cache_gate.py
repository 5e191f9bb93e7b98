"""Smoke tier for the cache free-ride suite and its gate.

Runs the first grid of :mod:`benchmarks.cache_bench` with full per-line
attribution, then drives ``scripts/check_bench.py cache --quick``
end-to-end against the recorded baseline, exactly how CI invokes it.
Carries the ``suite_smoke`` marker — deselect with ``-m "not suite_smoke"``
for a faster tier-1 run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))

from cache_bench import LINE_SIZES, run_cache_suite  # noqa: E402


@pytest.mark.suite_smoke
def test_quick_suite_holds_ledger_claims():
    result = run_cache_suite(quick=True)
    assert result["suite"] == "cache"
    assert result["config"]["line_sizes"] == list(LINE_SIZES)
    (doc,) = result["cache"].values()
    assert doc["format"] == "repro-cache-conformance"
    # the paper's Figures 3a/5a story, as gated claim records: extension
    # x-accesses are majority free rides, the fraction does not drop with
    # larger lines, and misses per nonzero stay at or below FSAI
    claims = doc["claims"]
    assert claims and all(c["ok"] for c in claims)
    names = {c["claim"] for c in claims}
    assert names == {
        "free-ride-majority",
        "misses-per-nnz-not-worse",
        "free-ride-rises-with-line-size",
    }
    assert doc["verdicts"] == []
    by_key = {(e["method"], e["line_bytes"]): e for e in doc["entries"]}
    for lb in LINE_SIZES:
        fsai = by_key[("FSAI", lb)]
        assert fsai["ext_accesses"] == 0
        for method in ("FSAIE", "FSAIE-Comm"):
            entry = by_key[(method, lb)]
            assert entry["ext_accesses"] > 0
            assert entry["free_rides"] > entry["ext_accesses"] / 2
            assert entry["misses_per_nnz"] <= fsai["misses_per_nnz"] * 1.05
    summary = result["summary"]
    for method in ("fsai", "fsaie", "comm"):
        for lb in LINE_SIZES:
            for metric in ("nnz", "misses", "misses_per_nnz",
                           "ext_accesses", "free_rides", "free_ride_pct"):
                assert f"g32.{method}.l{lb}.{metric}" in summary


@pytest.mark.suite_smoke
def test_cache_gate_is_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_bench.py"), "cache",
         "--quick"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=480,
    )
    assert proc.returncode == 0, (
        f"check_bench.py cache --quick failed:\n{proc.stdout}{proc.stderr}"
    )
    assert "OK: cache: 64 key(s) within policy" in proc.stdout
