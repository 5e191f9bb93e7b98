"""Smoke tier for the weak-scaling suite and its regression gate.

Runs the 64-rank rung of :mod:`benchmarks.scaling_bench` on the SPMD
engine (the quick configuration CI gates on) and then drives
``scripts/check_bench.py scaling --quick`` end-to-end against the recorded
baseline, exactly how CI invokes it.  Carries the ``suite_smoke`` marker —
deselect with ``-m "not suite_smoke"`` for a faster tier-1 run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))

from scaling_bench import run_scaling_suite  # noqa: E402


@pytest.mark.suite_smoke
def test_quick_suite_is_complete_and_invariant():
    result = run_scaling_suite(quick=True)
    assert "engine" not in result["config"]  # there is one
    entry = result["scaling"]["r64"]
    assert entry["ranks"] == 64
    assert entry["rows"] == 64 * entry["rows_per_rank"]
    assert 0 < entry["iterations"] <= result["config"]["max_iterations"]
    assert entry["messages"] > 0
    assert entry["bytes"] > entry["messages"]  # multi-byte payloads
    assert entry["invariant"] and entry["halo_invariant"]
    assert entry["rel_residual"] < 1.0  # the solve made progress
    summary = result["summary"]
    for metric in ("iterations", "messages", "bytes", "modeled_ms",
                   "max_bsp_wait_ms", "wall_s", "invariant", "halo_invariant"):
        assert f"r64.{metric}" in summary


@pytest.mark.suite_smoke
def test_scaling_gate_is_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_bench.py"), "scaling",
         "--quick"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=480,
    )
    assert proc.returncode == 0, (
        f"check_bench.py scaling --quick failed:\n{proc.stdout}{proc.stderr}"
    )
    assert "OK: scaling: 5 key(s) within policy" in proc.stdout
