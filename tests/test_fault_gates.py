"""The fault gates, pinned by digest.

``repro chaos --engine spmd`` and ``scripts/check_resilience.py`` are the
gates that run ``spmd_cg`` under fault plans.  Their outputs are pinned
here as recorded on the last commit whose faulted ``spmd_cg`` ran its rank
program on the per-message engine
(``tests/fixtures/fault_gate_digests.json``, written by
``python tests/test_fault_gates.py --record PATH``): the
:class:`~repro.resilience.ChaosReport` document of ``run_chaos(...,
engine="spmd")`` and the survival table the CLI prints, on the quick and
the standard menus, and the gate script's stdout.  A faulted run on the
clock ledger must reproduce every byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import build_fsai
from repro.matgen import poisson2d
from repro.resilience import quick_menu, run_chaos, standard_menu

REPO = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "fixtures" / "fault_gate_digests.json"
MENUS = {"quick": quick_menu, "standard": standard_menu}
RANKS, SEED = 4, 7


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def chaos_report_digest(menu: str) -> str:
    """The SHA-256 of ``run_chaos(..., engine="spmd").to_dict()``, as the
    resilience gate runs it."""
    report = run_chaos(poisson2d(16), ranks=RANKS, seed=SEED, rtol=1e-8,
                       menu=MENUS[menu](RANKS), engine="spmd",
                       precond_builder=lambda a, part: build_fsai(a, part),
                       matrix_label="poisson2d:16")
    return sha256(json.dumps(report.to_dict(), sort_keys=True))


def chaos_cli_digest(menu: str) -> str:
    """The SHA-256 of what ``repro chaos --engine spmd`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["chaos", "--generate", "poisson2d:16", "--ranks", str(RANKS),
                     "--engine", "spmd", "--menu", menu])
    return sha256(f"{code}\n{out.getvalue()}")


def gate_digest() -> str:
    """The SHA-256 of ``scripts/check_resilience.py``'s exit code and stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "check_resilience.py")],
                          capture_output=True, text=True, env=env, cwd=REPO, timeout=480)
    return sha256(f"{proc.returncode}\n{proc.stdout}")


FACTS = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else None


@pytest.mark.parametrize("menu", MENUS)
def test_the_spmd_chaos_report_is_the_recorded_one(menu):
    assert chaos_report_digest(menu) == FACTS[f"run_chaos-{menu}"]


@pytest.mark.parametrize("menu", MENUS)
def test_the_spmd_chaos_cli_prints_the_recorded_table(menu):
    assert chaos_cli_digest(menu) == FACTS[f"repro-chaos-{menu}"]


@pytest.mark.chaos_smoke
def test_the_resilience_gate_prints_the_recorded_output():
    assert gate_digest() == FACTS["check_resilience"]


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or len(sys.argv) != 3:
        sys.exit("usage: test_fault_gates.py --record PATH")
    facts = {"_provenance": (
        "recorded by `python tests/test_fault_gates.py --record PATH` on the last "
        "commit whose faulted spmd_cg ran its rank program on the per-message engine")}
    for menu in MENUS:
        facts[f"run_chaos-{menu}"] = chaos_report_digest(menu)
        facts[f"repro-chaos-{menu}"] = chaos_cli_digest(menu)
    facts["check_resilience"] = gate_digest()
    Path(sys.argv[2]).write_text(json.dumps(facts, indent=1) + "\n")
