"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Runs the same drivers as the benchmark on the ``smoke`` sizes (a few
seconds in all) and checks the runner's contract, not the numbers.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare_runs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONTRACT = run.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """``{workload: {trace flag: result}}`` of one smoke-size run each."""
    previous, run.OUT = run.OUT, tmp_path_factory.mktemp("out")
    try:
        yield {
            name: {trace: run.measure(name, 0, 0.0, bool(trace), "smoke") for trace in (0, 1)}
            for name in WORKLOADS
        }
    finally:
        run.OUT = previous


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(results, name, trace, section):
    metrics = results[name][trace]["metrics"]
    assert list(metrics) == [m["name"] for m in CONTRACT[section]]
    for declared in CONTRACT[section]:
        emitted = metrics[declared["name"]]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", declared["name"])
        assert emitted["unit"] == declared["unit"]
        assert math.isfinite(emitted["value"])
    assert results[name][trace]["correct"]
    assert results[name][trace]["fail_share"] == 0


def test_workloads_and_drivers_agree():
    assert set(WORKLOADS) == set(workloads.DRIVERS)
    for sizes in workloads.SIZES.values():
        assert set(sizes) == set(WORKLOADS)


def test_span_records_nothing_when_tracing_is_off():
    rec = spans.Recorder("w")
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    assert rec.spans == []
    rec.enabled = True
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    assert [(s.name, s.parent) for s in rec.spans] == [("outer", -1), ("inner", 0)]


def test_self_times_sum_to_covered_time():
    rec = spans.Recorder("w", enabled=True)
    with rec.span(spans.ROOT):
        with rec.span("a"):
            with rec.span("a.child"):
                pass
        with rec.span("b"):
            pass
    root = rec.spans[0]
    own = spans.self_times(rec.spans)
    assert all(s >= 0 for s in own)
    assert sum(own) == pytest.approx(root.end - root.start)
    profile = spans.rep_profile(rec.spans, 0)
    assert profile["wall"] == pytest.approx(root.end - root.start)
    assert sum(profile["self"].values()) == pytest.approx(profile["covered"])
    assert profile["covered"] == pytest.approx(profile["busy"]["a"] + profile["busy"]["b"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_file_accounts_for_every_repetition(results, name):
    doc = json.loads((run.OUT / f"trace_{name}.json").read_text())
    by_rep: dict[int, list[dict]] = {}
    for span in doc["spans"]:
        assert span["workload"] == name
        by_rep.setdefault(span["rep"], []).append(span)
    assert by_rep, "the traced run recorded no span"
    for rep_spans in by_rep.values():
        (root,) = [s for s in rep_spans if s["parent"] < 0]
        assert root["name"] == spans.ROOT
        assert sum(s["self_s"] for s in rep_spans) == pytest.approx(root["end"] - root["start"])
        assert {s["name"] for s in rep_spans} - {spans.ROOT} <= set(workloads.SPAN_NAMES)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_counts_are_identical(results, name):
    untraced, traced = results[name][0], results[name][1]
    assert traced["reps"] == 2  # one untraced and one traced repetition, compared inside measure
    assert traced["counts"] == untraced["counts"]
    assert untraced["counts"]["iterations"] > 0
    assert untraced["metrics"]["iterations"]["value"] == untraced["counts"]["iterations"]


def test_forced_non_convergence_raises_fail_share_and_exit_code(monkeypatch, capsys):
    name = "pipeline_p3d24_r8"
    monkeypatch.setitem(workloads.SIZES["smoke"][name], "max_iterations", 2)
    result = run.measure(name, 0, 0.0, False, "smoke")
    assert not result["correct"]
    assert result["failed"] == 3 and result["attempted"] == 4
    assert result["fail_share"] == 0.75

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    affinity = os.sched_getaffinity(0)
    try:
        code = run.main(["--workload", name, "--size", "smoke", "--seconds", "0"])
    finally:
        os.sched_setaffinity(0, affinity)
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED CHECK: rep 0: pcg[FSAI]" in captured.err
    last = json.loads(captured.out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["failed"] == 3


def test_compare_runs_flags_only_a_regression_beyond_the_bound(results):
    doc = {"workloads": {name: results[name][0] for name in WORKLOADS}}
    lines, ok = compare_runs.compare(doc, doc, CONTRACT["end_to_end"])
    assert ok and len(lines) == 1 + len(WORKLOADS) * len(CONTRACT["end_to_end"])
    bound = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}["wall_s"]
    worse = copy.deepcopy(doc)
    worse["workloads"][WORKLOADS[0]]["metrics"]["wall_s"]["value"] *= 1 + 2 * bound
    assert not compare_runs.compare(doc, worse, CONTRACT["end_to_end"])[1]
    assert compare_runs.compare(worse, doc, CONTRACT["end_to_end"])[1]
