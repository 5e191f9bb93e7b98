#!/usr/bin/env python
"""Kernel microbenchmark runner — emits ``BENCH_kernels.json``.

Thin wrapper over :mod:`repro.kernels.bench` so the perf trajectory can be
recorded from the repo root without going through the CLI::

    PYTHONPATH=src python benchmarks/microbench.py [--quick] [--output PATH]

``repro bench`` is the equivalent CLI spelling.  See docs/PERFORMANCE.md for
how to read the output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.kernels.bench import (  # noqa: E402
    DEFAULT_REPS,
    DEFAULT_SIZES,
    format_summary,
    run_suite,
    write_suite,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_kernels.json")
    parser.add_argument("--sizes", help="comma-separated 2-D grid sizes")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    sizes = (
        tuple(int(s) for s in args.sizes.split(",")) if args.sizes else DEFAULT_SIZES
    )
    result = run_suite(sizes=sizes, reps=args.reps, quick=args.quick)
    path = write_suite(result, args.output)
    print(format_summary(result))
    print(f"\nwritten: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
