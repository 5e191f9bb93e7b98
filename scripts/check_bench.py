#!/usr/bin/env python
"""The benchmark gate: one suite document against its recorded baseline.

Usage::

    PYTHONPATH=src python scripts/check_bench.py SUITE [--bench PATH]
        [--baseline PATH] [--quick] [--check-timings]

SUITE is one of the suites registered in ``benchmarks/suites.py``: kernels,
solver, scaling, conformance, cache, serve.  Without ``--bench`` the suite
runs fresh (``--quick``: its smoke-sized run); the baseline defaults to
``benchmarks/baselines/<suite>_baseline.json``.

Every baseline key gates by the suite's policy (exact, round-off, config,
timing; see ``benchmarks/suites.py``).  When the fresh run used exactly the
baseline's configuration, a gated key it lacks fails too.  Then the suite's
claims run on the document.

Exit codes: 0 clean; 1 a key outside its policy or a failed claim; 2 an
unreadable document, a document or baseline of another suite, or no
metric compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks")]

from repro.observe import ReportError, RunReport  # noqa: E402
from suites import SUITES  # noqa: E402

BASELINES = REPO / "benchmarks" / "baselines"


def _covers(base: dict, fresh: dict) -> bool:
    """Whether ``fresh`` ran the configuration ``base`` records or a quick
    subset of it: the same keys and values, except lists it trimmed."""
    return base.keys() == fresh.keys() and all(
        fresh[k] == base[k]
        or (isinstance(fresh[k], list) and isinstance(base[k], list)
            and all(v in base[k] for v in fresh[k]))
        for k in base
    )


def _read(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ReportError(f"cannot read {path}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("suite", choices=sorted(SUITES))
    parser.add_argument("--bench", help="suite document to gate (default: a fresh run)")
    parser.add_argument("--baseline",
                        help="baseline (default: benchmarks/baselines/<suite>_baseline.json)")
    parser.add_argument("--quick", action="store_true",
                        help="make the fresh run the suite's smoke-sized one")
    parser.add_argument("--check-timings", action="store_true",
                        help="also gate timing keys (machine-dependent)")
    args = parser.parse_args(argv)
    suite = SUITES[args.suite]
    try:
        doc = _read(args.bench) if args.bench else suite.run(quick=args.quick)
        fresh = RunReport.from_bench(doc, label="fresh")
        baseline = RunReport.load(args.baseline or BASELINES / f"{args.suite}_baseline.json")
        for report, what in ((fresh, args.bench or "the fresh run"),
                             (baseline, "the baseline")):
            if report.meta.get("suite") != args.suite:
                raise ReportError(f"{what} is a {report.meta.get('suite')!r} "
                                  f"document, not {args.suite!r}")
        base_config, fresh_config = baseline.meta.get("config", {}), fresh.meta["config"]
        covers, same = _covers(base_config, fresh_config), base_config == fresh_config
        tolerances = {}
        for name in sorted(baseline.metrics):
            rule = suite.rule(name)
            if (rule is None or (rule.kind == "config" and not covers)
                    or (rule.kind == "timing" and not args.check_timings)):
                continue
            if name in fresh.metrics or same:
                tolerances[name] = {"rel": rule.rel, "abs": rule.abs}
        if not tolerances:
            raise ReportError(f"no metrics compared: the document shares no "
                              f"gated key with {baseline.label}")
        try:
            problems = suite.claims(doc)
        except (KeyError, TypeError) as exc:
            raise ReportError(f"malformed {args.suite} document: lacks {exc}") from None
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    comparison = baseline.compare(fresh, tolerances, metrics=list(tolerances))
    print(comparison.render(only_failures=True))
    if not covers:
        print(f"note: configs differ, config keys not gated (baseline "
              f"{base_config}, fresh {fresh_config})")
    if not comparison.passed:
        problems.insert(0, f"{len(comparison.regressions())} key(s) outside "
                           "the policy against the baseline")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"OK: {args.suite}: {len(tolerances)} key(s) within policy of "
          f"{baseline.label}, every claim holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
