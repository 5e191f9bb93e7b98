#!/usr/bin/env python
"""CI gate: the α–β cost model must stay conformant with the simulator.

Consumes a ``BENCH_conformance.json`` suite (a recorded file, or a fresh
run of :mod:`benchmarks.conformance_bench`) and gates two kinds of fact:

**Structural facts — exact.**  At every rung of the strong-scaled ladder:

* ``invariant`` / ``halo_invariant`` — the paper's §4 guarantee that
  FSAIE-Comm exchanges exactly the FSAI halos, the latter re-proved on the
  wire *with streaming telemetry enabled*;
* ``telemetry_excluded`` — telemetry traffic actually flowed (nonzero
  telemetry bytes) while the audited point-to-point snapshots stayed
  identical, proving the in-band channel is invisible to the auditors;
* payload sublinearity — the serialized telemetry aggregate must grow
  sublinearly in the rank count (it is O(sampled ranks + log-bucket
  histograms) by construction) and stay below a quarter of the estimated
  full-trace volume for the same solve.  The growth gate needs at least
  two rungs and is skipped for ``--quick`` runs.

**Phase ratios — an absolute band.**  The measured/predicted ratio of each
phase (compute, halo, reduction) divides the *simulated schedule* of the
solve — modeled seconds on the engine's α–β clock, fed the same machine
numbers — by the model's closed-form prediction.  Both sides are
deterministic, so the ratio is an O(1) property of the algorithm's schedule
(how much latency the overlap hides, how far the busiest rank is from the
mean), not of the host: every ratio must lie in ``[--min-ratio,
--max-ratio]`` (default 0.05–2.0) at every rung.  A phase the model prices
at zero while the simulation spent time in it (ratio ``inf``) fails.

Usage::

    PYTHONPATH=src python scripts/check_model_conformance.py --quick
    PYTHONPATH=src python scripts/check_model_conformance.py --bench BENCH_conformance.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Structural flags that must be truthy at every rung.
REQUIRED_FLAGS = ("invariant", "halo_invariant", "telemetry_excluded")

#: Absolute band every measured/predicted phase ratio must lie in.
RATIO_BAND = (0.05, 2.0)

#: Telemetry payload must stay below this fraction of the full-trace volume.
TRACE_FRACTION = 0.25

#: Payload growth must stay below this fraction of the rank-count growth
#: across the ladder (strict sublinearity with margin).
GROWTH_FRACTION = 0.5


def check_structure(entries: list[dict], *, full_ladder: bool) -> list[str]:
    """Exact structural gates; returns failure messages."""
    failures: list[str] = []
    for entry in entries:
        ranks = entry["ranks"]
        extras = entry.get("extras", {})
        for flag in REQUIRED_FLAGS:
            if not extras.get(flag):
                failures.append(f"r{ranks}: structural flag {flag!r} is false")
        payload = entry.get("telemetry_payload_bytes", 0)
        trace = extras.get("full_trace_bytes", 0)
        if trace and payload >= TRACE_FRACTION * trace:
            failures.append(
                f"r{ranks}: telemetry payload {payload} B is not sublinear vs "
                f"the full-trace estimate {trace} B "
                f"(allowed < {TRACE_FRACTION:.0%})"
            )
    if full_ladder and len(entries) >= 2:
        lo = min(entries, key=lambda e: e["ranks"])
        hi = max(entries, key=lambda e: e["ranks"])
        rank_growth = hi["ranks"] / max(lo["ranks"], 1)
        payload_growth = hi["telemetry_payload_bytes"] / max(
            lo["telemetry_payload_bytes"], 1
        )
        if payload_growth >= GROWTH_FRACTION * rank_growth:
            failures.append(
                f"payload grew {payload_growth:.2f}x from r{lo['ranks']} to "
                f"r{hi['ranks']} while ranks grew {rank_growth:.0f}x — "
                f"telemetry is not sublinear in P "
                f"(allowed < {GROWTH_FRACTION:.0%} of rank growth)"
            )
    return failures


def check_ratios(entries: list[dict], *, band: tuple[float, float]) -> tuple[list[str], int]:
    """Every phase ratio inside the absolute band; returns
    (failures, number of ratios checked)."""
    lo, hi = band
    failures: list[str] = []
    checked = 0
    for entry in entries:
        for phase in entry.get("phases", []):
            ratio = float(phase["ratio"])
            checked += 1
            if not lo <= ratio <= hi:  # also catches inf and nan
                failures.append(
                    f"r{entry['ranks']}: {phase['phase']} ratio {ratio:.3g} "
                    f"(simulated {phase['measured_seconds']:.3g} s / predicted "
                    f"{phase['predicted_seconds']:.3g} s) is outside "
                    f"[{lo}, {hi}]"
                )
    return failures, checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench",
        help="existing BENCH_conformance.json to check "
        "(default: run the suite fresh)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fresh runs cover the 64-rank rung only "
        "(skips the payload-growth gate)",
    )
    parser.add_argument("--min-ratio", type=float, default=RATIO_BAND[0],
                        help="lowest allowed measured/predicted phase ratio")
    parser.add_argument("--max-ratio", type=float, default=RATIO_BAND[1],
                        help="highest allowed measured/predicted phase ratio")
    args = parser.parse_args(argv)

    from repro.observe import ReportError, RunReport

    if args.bench:
        try:
            fresh = RunReport.load(args.bench)
        except ReportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.path.insert(
            0, str(Path(__file__).resolve().parent.parent / "benchmarks")
        )
        from conformance_bench import run_conformance_suite

        fresh = RunReport.from_conformance_bench(
            run_conformance_suite(quick=args.quick), label="fresh"
        )
    if fresh.meta.get("source") != "conformance-bench":
        print(
            f"error: {args.bench or 'fresh run'} is not a conformance suite "
            f"(source={fresh.meta.get('source')!r})",
            file=sys.stderr,
        )
        return 2
    entries = fresh.sections.get("conformance", {}).get("entries", [])
    if not entries:
        print("error: conformance suite has no ladder entries", file=sys.stderr)
        return 2
    full_ladder = not args.quick and len(entries) >= 2
    failures = check_structure(entries, full_ladder=full_ladder)
    band = (args.min_ratio, args.max_ratio)
    ratio_failures, checked = check_ratios(entries, band=band)
    failures += ratio_failures

    rungs = ", ".join(f"r{e['ranks']}" for e in entries)
    print(f"conformance gate: {len(entries)} rung(s) [{rungs}], "
          f"{checked} phase ratio(s) held to [{band[0]}, {band[1]}]")
    if checked == 0:
        failures.append("the suite recorded no phase ratios")
    verdicts = fresh.sections.get("conformance", {}).get("verdicts", [])
    for verdict in verdicts:
        print(f"  note: verdict {verdict['name']} at r{verdict['ranks']}: "
              f"{verdict['detail']}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: model conformance within the band "
          f"({len(verdicts)} divergence verdict(s), structural facts hold)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
