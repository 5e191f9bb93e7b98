#!/usr/bin/env python
"""The benchmark-suite registry and its one driver.

Six suites each record one ``BENCH_<suite>.json`` document of one shape:
``suite``, ``config``, ``summary`` (the flat comparable surface, read by
:meth:`repro.observe.RunReport.from_bench` as ``<suite>.<key>`` metrics)
and one section named after the suite.  A :class:`Suite` registers:

* ``run(quick=)`` — produce the document (``quick``: the smoke-sized run);
* ``policy`` — how ``scripts/check_bench.py`` gates each summary key
  against the recorded baseline, matched by key suffix:

  - ``exact`` — equal, always;
  - ``round-off`` — relative 1e-9, always (ratios of exact counts);
  - ``config`` — an absolute allowance, only when the fresh run used the
    baseline's configuration or is a quick subset of it (its lists trimmed);
  - ``timing`` — a relative band, only under ``--check-timings``.

  A key no suffix matches is never gated (wall seconds, straggler counts);
* ``claims(doc)`` — the facts that need no baseline, as failure messages
  (empty when everything holds).

Run::

    PYTHONPATH=src python benchmarks/suites.py SUITE [--quick] [--output PATH]

It prints the suite's table, writes ``BENCH_<suite>.json`` (or ``--output``)
with its ``.report.json`` companion, and exits 1 when a claim fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cache_bench  # noqa: E402
import conformance_bench  # noqa: E402
import scaling_bench  # noqa: E402
import serve_bench  # noqa: E402
import solver_bench  # noqa: E402
from repro.kernels import format_summary, run_suite, write_suite  # noqa: E402
from repro.perfmodel.ladders import STRUCTURAL_FLAGS  # noqa: E402


@dataclass(frozen=True)
class Rule:
    """How the summary keys with one suffix are gated."""

    kind: str  # "exact" | "round-off" | "config" | "timing"
    rel: float = 0.0
    abs: float = 0.0


EXACT = Rule("exact")
ROUND_OFF = Rule("round-off", rel=1e-9)
ITERATIONS = Rule("config", abs=2.0)


def _rules(rule: Rule, *suffixes: str) -> dict[str, Rule]:
    return dict.fromkeys(suffixes, rule)


@dataclass(frozen=True)
class Suite:
    """One registered benchmark suite."""

    run: Callable[..., dict]
    format: Callable[[dict], str]
    policy: dict[str, Rule]
    claims: Callable[[dict], list[str]] = lambda doc: []

    def rule(self, metric: str) -> Rule | None:
        """The rule of the first policy suffix ``metric`` ends with."""
        for suffix, rule in self.policy.items():
            if metric.endswith("." + suffix):
                return rule
        return None


# ---------------------------------------------------------------- claims
#: Every measured/predicted phase ratio of a conformance rung lies in this
#: band: the model prices the engine's own kernels, messages and allreduces
#: (DESIGN.md §2), so the ratios sit near 1.  A phase the model prices at
#: zero while the simulation spent time in it (ratio ``inf``) falls outside.
RATIO_BAND = (0.8, 1.25)
#: The one exemption: the halo's lower edge.  The ladder runs pipelined PCG
#: with overlap, which hides up to each exchange's local-block product
#: behind its messages, while the model prices the blocking exchange; at 64
#: ranks (144 rows each) that hides 43 % of the halo (ratio 0.57).
HALO_FLOOR = 0.5
#: The telemetry payload stays below this fraction of the full-trace volume.
TRACE_FRACTION = 0.25
#: Payload growth across the ladder stays below this fraction of rank growth.
GROWTH_FRACTION = 0.5


def kernels_claims(doc: dict) -> list[str]:
    """The warm-workspace PCG (4-rank Poisson, FSAI) allocates nothing."""
    hot = doc["summary"]["pcg_hot_allocs"]
    if hot == 0:
        return []
    return [f"pcg_hot_allocs is {hot}: the warm-workspace PCG allocated in "
            "its hot loop (the invariant is 0)"]


def conformance_claims(doc: dict) -> list[str]:
    """Structural flags, payload sublinearity and the ratio band per rung;
    payload growth against rank growth across a ladder of ≥ 2 rungs."""
    entries = doc["conformance"]["entries"]
    if not entries:
        return ["the conformance suite recorded no rung"]
    failures = []
    lo, hi = RATIO_BAND
    for e in entries:
        rung = f"r{e['ranks']}"
        failures += [f"{rung}: structural flag {flag!r} is false"
                     for flag in STRUCTURAL_FLAGS if not e["extras"][flag]]
        payload, trace = e["telemetry_payload_bytes"], e["extras"]["full_trace_bytes"]
        if payload >= TRACE_FRACTION * trace:
            failures.append(
                f"{rung}: telemetry payload {payload} B is not below "
                f"{TRACE_FRACTION:.0%} of the full-trace estimate {trace} B"
            )
        if not e["phases"]:
            failures.append(f"{rung}: no phase ratio recorded")
        for p in e["phases"]:
            floor = HALO_FLOOR if p["phase"] == "halo" else lo
            if not floor <= p["ratio"] <= hi:  # also catches inf and nan
                failures.append(
                    f"{rung}: {p['phase']} ratio {p['ratio']:.3g} (simulated "
                    f"{p['measured_seconds']:.3g} s / predicted "
                    f"{p['predicted_seconds']:.3g} s) is outside [{floor}, {hi}]"
                )
    if len(entries) >= 2:
        first = min(entries, key=lambda e: e["ranks"])
        last = max(entries, key=lambda e: e["ranks"])
        rank_growth = last["ranks"] / first["ranks"]
        payload_growth = (last["telemetry_payload_bytes"]
                          / max(first["telemetry_payload_bytes"], 1))
        if payload_growth >= GROWTH_FRACTION * rank_growth:
            failures.append(
                f"payload grew {payload_growth:.2f}x from r{first['ranks']} to "
                f"r{last['ranks']} while ranks grew {rank_growth:.0f}x (allowed "
                f"< {GROWTH_FRACTION:.0%} of rank growth)"
            )
    return failures


def cache_claims(doc: dict) -> list[str]:
    """Every ledger claim of every rung holds, and every method of a rung
    carries every claim family (silently skipped evidence fails too)."""
    if not doc["cache"]:
        return ["the cache suite recorded no rung"]
    failures = []
    for grid, rung in sorted(doc["cache"].items()):
        if not rung["claims"]:
            failures.append(f"{grid}: rung carries no ledger claims")
        families: dict[str, set] = {}
        for c in rung["claims"]:
            families.setdefault(c["method"], set()).add(c["claim"])
            if not c["ok"]:
                failures.append(f"{grid}: {c['method']} failed {c['claim']!r}: "
                                f"{c['detail']}")
        for method, names in families.items():
            missing = [c for c in cache_bench.CLAIM_FLAGS if c not in names]
            if missing:
                failures.append(f"{grid}: {method} is missing claim families "
                                f"{missing}")
    return failures


# -------------------------------------------------------------- registry
def _run_kernels(*, quick: bool = False) -> dict:
    """Full: the default sizes; quick: the recorded baseline's configuration."""
    return run_suite(sizes=(12, 16), reps=1, quick=True) if quick else run_suite()


SUITES = {
    "kernels": Suite(
        run=_run_kernels,
        format=format_summary,
        policy={
            **_rules(EXACT, "pcg_hot_allocs", "workspace_allocs_hot"),
            **_rules(ITERATIONS, "iterations"),
            **_rules(Rule("config", abs=1e-12), "precond_nnz_ratio"),
            **_rules(Rule("config"), "rows_kept", "rows_base", "rows_solved"),
            **_rules(Rule("timing", rel=0.9), "spmv_speedup_largest",
                     "spmv_transpose_speedup_largest", "precond_apply_ratio",
                     "ms"),
        },
        claims=kernels_claims,
    ),
    "solver": Suite(
        run=solver_bench.run_solver_suite,
        format=solver_bench.format_summary,
        policy={
            **_rules(EXACT, "nnz", "invariant"),
            **_rules(ITERATIONS, "iterations"),
            **_rules(Rule("timing", rel=0.1), "modeled_ms"),
        },
    ),
    "scaling": Suite(
        run=scaling_bench.run_scaling_suite,
        format=scaling_bench.format_summary,
        policy={
            **_rules(EXACT, "messages", "bytes", "invariant", "halo_invariant"),
            **_rules(ITERATIONS, "iterations"),
            **_rules(Rule("timing", rel=0.1), "modeled_ms", "max_bsp_wait_ms"),
        },
    ),
    "conformance": Suite(
        run=conformance_bench.run_conformance_suite,
        format=conformance_bench.format_summary,
        policy={
            **_rules(EXACT, *STRUCTURAL_FLAGS, "sampled_ranks", "payload_bytes",
                     "messages", "bytes", "telemetry_messages",
                     "telemetry_bytes"),
            **_rules(ITERATIONS, "iterations"),
            **_rules(ROUND_OFF, "ratio.compute", "ratio.halo",
                     "ratio.reduction"),
        },
        claims=conformance_claims,
    ),
    "cache": Suite(
        run=cache_bench.run_cache_suite,
        format=cache_bench.format_summary,
        policy={
            **_rules(EXACT, "nnz", "misses", "ext_accesses", "free_rides",
                     *cache_bench.CLAIM_FLAGS.values()),
            **_rules(ROUND_OFF, "free_ride_pct", "free_ride_local_pct",
                     "free_ride_halo_pct", "misses_per_nnz", "model_ratio"),
        },
        claims=cache_claims,
    ),
    "serve": Suite(
        run=serve_bench.run_serve_suite,
        format=serve_bench.format_summary,
        policy={
            **_rules(EXACT, "solves", "structure_hits", "structure_misses",
                     "system_hits", "system_misses", "audits",
                     "audit_violations", "schedule_invariant", "converged"),
            **_rules(ROUND_OFF, "hit_rate"),
            **_rules(ITERATIONS, "iterations_total"),
            **_rules(Rule("timing", rel=0.9), "throughput_rps"),
        },
        claims=serve_bench.failed_claims,
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("suite", choices=sorted(SUITES))
    parser.add_argument("--quick", action="store_true",
                        help="the suite's smoke-sized run")
    parser.add_argument("--output",
                        help="document path (default: BENCH_<suite>.json)")
    args = parser.parse_args(argv)
    suite = SUITES[args.suite]
    doc = suite.run(quick=args.quick)
    print(suite.format(doc))
    print(f"\nwritten: {write_suite(doc, args.output or f'BENCH_{args.suite}.json')}")
    failures = suite.claims(doc)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
