"""The one benchmark gate, ``scripts/check_bench.py``, on every suite.

Each suite's recorded ``BENCH_<suite>.json`` is gated against a copy of
itself with one key bumped, so exactly that key can fail: an ``exact`` key
always, a ``timing`` key only under ``--check-timings``.  Broken claims,
documents of the wrong suite and documents that share nothing with their
baseline fail too.  Runs in-process: no suite is re-run.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "scripts"), str(REPO / "benchmarks")]

import check_bench  # noqa: E402
from suites import SUITES  # noqa: E402

BASELINES = REPO / "benchmarks" / "baselines"


def _recorded(suite: str) -> dict:
    return json.loads((REPO / f"BENCH_{suite}.json").read_text())


def _write(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _bumped(doc: dict, key: str, path: Path) -> Path:
    summary = dict(doc["summary"])
    summary[key] = 10 * summary[key] + 1  # outside even a 90 % band
    return _write({**doc, "summary": summary}, path)


def _keys_of_kind(suite: str, doc: dict, kind: str) -> list[str]:
    return [key for key in doc["summary"]
            if (rule := SUITES[suite].rule(f"{suite}.{key}")) and rule.kind == kind]


def test_every_registry_suite_has_a_readme_artifact_row():
    rows = re.findall(r"^\| `BENCH_(\w+)\.json` \|", (REPO / "README.md").read_text(),
                      re.MULTILINE)
    assert sorted(rows) == sorted(SUITES)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_recorded_document_passes_and_a_mutated_baseline_fails(suite, tmp_path, capsys):
    doc = _recorded(suite)
    bench = str(REPO / f"BENCH_{suite}.json")
    assert check_bench.main([suite, "--bench", bench]) == 0, capsys.readouterr()
    assert check_bench.main([suite, "--bench", bench, "--baseline", bench]) == 0

    exact = _keys_of_kind(suite, doc, "exact")[0]
    capsys.readouterr()
    baseline = str(_bumped(doc, exact, tmp_path / "exact.json"))
    assert check_bench.main([suite, "--bench", bench, "--baseline", baseline]) == 1
    assert f"{suite}.{exact}" in capsys.readouterr().out

    for timing in _keys_of_kind(suite, doc, "timing")[:1]:
        baseline = str(_bumped(doc, timing, tmp_path / "timing.json"))
        assert check_bench.main([suite, "--bench", bench, "--baseline", baseline]) == 0
        capsys.readouterr()
        assert check_bench.main([suite, "--bench", bench, "--baseline", baseline,
                                 "--check-timings"]) == 1
        assert f"{suite}.{timing}" in capsys.readouterr().out


def _serve_warm_build(doc):
    doc["summary"]["r16.warm.system_misses"] += 1
    return "r16: the cache made 5 builds for 4 value variants"


def _serve_audit(doc):
    doc["summary"]["r16.warm.schedule_invariant"] = 0
    return "r16: §4 invariance audit not clean"


def _serve_converged(doc):
    doc["summary"]["r64.warm.converged"] = 0
    return "r64: not all served solves converged"


def _cache_claim_flag(doc):
    claim = doc["cache"]["g32"]["claims"][0]
    claim["ok"] = False
    return f"g32: {claim['method']} failed {claim['claim']!r}"


def _cache_claim_family(doc):
    rung = doc["cache"]["g64"]
    rung["claims"] = [c for c in rung["claims"] if (c["method"], c["claim"])
                      != ("FSAIE", "free-ride-rises-with-line-size")]
    return "g64: FSAIE is missing claim families ['free-ride-rises-with-line-size']"


def _conformance_ratio(doc):
    doc["conformance"]["entries"][0]["phases"][1]["ratio"] = 2.5
    return "r64: halo ratio 2.5"


def _conformance_flag(doc):
    doc["conformance"]["entries"][1]["extras"]["telemetry_excluded"] = False
    return "r256: structural flag 'telemetry_excluded' is false"


def _conformance_payload(doc):
    entry = doc["conformance"]["entries"][0]
    entry["telemetry_payload_bytes"] = entry["extras"]["full_trace_bytes"] // 2
    return "r64: telemetry payload 3452928 B is not below 25%"


def _conformance_growth(doc):
    doc["conformance"]["entries"][2]["telemetry_payload_bytes"] = 1_100_000
    return "payload grew 8.46x from r64 to r1024 while ranks grew 16x"


def _kernels_hot_allocs(doc):
    doc["summary"]["pcg_hot_allocs"] = 3
    return "pcg_hot_allocs is 3"


@pytest.mark.parametrize("suite, breaks", [
    ("serve", _serve_warm_build),
    ("serve", _serve_audit),
    ("serve", _serve_converged),
    ("cache", _cache_claim_flag),
    ("cache", _cache_claim_family),
    ("conformance", _conformance_ratio),
    ("conformance", _conformance_flag),
    ("conformance", _conformance_payload),
    ("conformance", _conformance_growth),
    ("kernels", _kernels_hot_allocs),
])
def test_a_broken_claim_fails_the_gate(suite, breaks, tmp_path, capsys):
    doc = _recorded(suite)
    message = breaks(doc)
    bench = str(_write(doc, tmp_path / f"BENCH_{suite}.json"))
    assert check_bench.main([suite, "--bench", bench]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("suite, bench, baseline", [
    ("cache", "kernels", "cache"),
    ("solver", "scaling", "solver"),
    ("solver", "solver", "scaling"),
])
def test_another_suites_document_or_baseline_exits_2(suite, bench, baseline, capsys):
    argv = [suite, "--bench", str(REPO / f"BENCH_{bench}.json"),
            "--baseline", str(BASELINES / f"{baseline}_baseline.json")]
    assert check_bench.main(argv) == 2
    err = capsys.readouterr().err
    other = bench if bench != suite else baseline
    assert err.startswith("error:") and repr(other) in err and repr(suite) in err


def test_a_baseline_sharing_no_gated_key_exits_2(tmp_path, capsys):
    doc = _recorded("solver")
    baseline = _write({**doc, "summary": {"unrelated.key": 1}}, tmp_path / "base.json")
    argv = ["solver", "--bench", str(REPO / "BENCH_solver.json"),
            "--baseline", str(baseline)]
    assert check_bench.main(argv) == 2
    assert "no metrics compared" in capsys.readouterr().err


def test_a_document_that_is_not_a_suite_document_exits_2(tmp_path, capsys):
    report = str(REPO / "BENCH_solver.report.json")
    assert check_bench.main(["solver", "--bench", report]) == 2
    assert "not a benchmark suite document" in capsys.readouterr().err
