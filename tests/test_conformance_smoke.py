"""Smoke tier for the model-conformance suite and its gate.

Runs the 64-rank rung of :mod:`benchmarks.conformance_bench` on the SPMD
engine with in-band telemetry enabled, then drives
``scripts/check_model_conformance.py --quick`` end-to-end, exactly how CI
invokes it.  Carries the
``conformance_smoke`` marker — deselect with ``-m "not conformance_smoke"``
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

from conformance_bench import run_conformance_suite  # noqa: E402


@pytest.mark.conformance_smoke
def test_quick_suite_holds_structural_facts():
    result = run_conformance_suite(quick=True)
    assert "engine" not in result["config"]  # there is one
    (entry,) = result["conformance"]["entries"]
    assert entry["ranks"] == 64
    assert 0 < entry["iterations"] <= result["config"]["max_iterations"]
    extras = entry["extras"]
    # §4 invariance holds with telemetry on, and telemetry traffic flowed
    # without appearing in the audited point-to-point snapshots
    assert extras["invariant"] and extras["halo_invariant"]
    assert extras["telemetry_excluded"]
    assert extras["telemetry_bytes"] > 0
    assert extras["messages"] > 0
    # bounded-memory artifact: far below the full-trace volume
    assert entry["telemetry_payload_bytes"] < extras["full_trace_bytes"] / 4
    assert entry["sampled_ranks"] == result["config"]["rank_sample"]
    phases = {p["phase"]: p for p in entry["phases"]}
    assert set(phases) == {"compute", "halo", "reduction"}
    assert all(p["measured_seconds"] > 0 for p in phases.values())
    assert all(p["predicted_seconds"] > 0 for p in phases.values())
    # a simulated schedule over a closed-form prediction: O(1), and exactly
    # the same on every run
    assert all(0.05 <= p["ratio"] <= 2.0 for p in phases.values())
    again = run_conformance_suite(quick=True)["conformance"]["entries"][0]
    assert again["phases"] == entry["phases"]
    assert again["telemetry_payload_bytes"] == entry["telemetry_payload_bytes"]
    summary = result["summary"]
    for metric in ("iterations", "messages", "bytes", "payload_bytes",
                   "halo_invariant", "telemetry_excluded", "ratio.compute",
                   "ratio.halo", "ratio.reduction", "wall_s"):
        assert f"r64.{metric}" in summary


@pytest.mark.conformance_smoke
def test_conformance_gate_is_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_model_conformance.py"),
         "--quick"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=480,
    )
    assert proc.returncode == 0, (
        f"check_model_conformance.py --quick failed:\n{proc.stdout}{proc.stderr}"
    )
    assert "OK: model conformance within the band" in proc.stdout
