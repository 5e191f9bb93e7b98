#!/usr/bin/env python
"""CI gate: kernel microbenchmark counters must not regress.

Diffs a ``BENCH_kernels.json`` suite result (a recorded file, or a fresh
quick run) against the recorded baseline in
``benchmarks/baselines/bench_baseline.json`` through
:meth:`repro.observe.RunReport.compare` with per-metric tolerances:

* allocation counters gate exactly (a warm workspace solve must stay at
  zero hot-loop allocations);
* iteration counts gate with a small absolute allowance, the
  FSAIE-Comm/FSAI stored-entry ratio and the re-filter row classes (rows
  each ``finalize`` kept, copied from the base factor, solved again)
  exactly, and only when the fresh run used the same suite configuration as
  the baseline (all depend on the benchmarked grid);
* timing-derived numbers (planned-kernel speedups, the FSAIE-Comm/FSAI
  apply-time ratio, re-filter milliseconds) are machine-dependent and are
  only checked with ``--check-timings`` (wide relative tolerance) — never in
  CI by default.

Solve-level suites (``BENCH_solver.json``, see :mod:`benchmarks.solver_bench`)
are gated too — either pass ``--solver`` or point ``--bench`` at a solver
document and the script switches to the solver baseline and tolerances:
iteration counts get a small absolute allowance, nnz counts and the
communication-invariance flags gate exactly, and modeled times (analytic,
but float-accumulated) gate with a narrow relative band.

The weak-scaling suite (``BENCH_scaling.json``, see
:mod:`benchmarks.scaling_bench`) has its own baseline and tolerances via
``--scaling``: message and byte totals under per-edge coalescing plus the
two communication-invariance flags gate exactly, iteration counts get the
small absolute allowance, modeled times (per-iteration cost and max BSP
wait) gate with ``--check-timings``, and wall-clock seconds are never gated.
Without ``--bench`` the flag runs the quick (64-rank) ladder fresh.

The cache free-ride suite (``BENCH_cache.json``, see
:mod:`benchmarks.cache_bench`) is gated via ``--cache`` against
``benchmarks/baselines/cache_baseline.json``: the attributed replay is a
pure function of the matrix, partition seed and cache geometry, so every
count (nonzeros, misses, extension accesses, free rides) and claim flag
gates exactly, and the derived fractions (free-ride percentages,
misses-per-nnz, model ratios) gate within float round-off.  The
claim-level gate with the fresh-run fallback is
``scripts/check_cache_reuse.py``; this entry point catches silent drift of
the recorded numbers themselves.

The model-conformance suite (``BENCH_conformance.json``, see
:mod:`benchmarks.conformance_bench`) is gated via ``--conformance`` against
``benchmarks/baselines/conformance_baseline.json``: the three structural
flags (schedule invariance, invariance-with-telemetry, telemetry excluded
from the audit), solver message/byte totals, sampled-rank counts,
telemetry message counts and telemetry payload sizes gate exactly (every
streamed number is a modeled quantity, so even its JSON length repeats);
measured/predicted phase ratios are deterministic too and gate to float
round-off (the absolute-band gate is
``scripts/check_model_conformance.py``); straggler counts and wall seconds
are never gated.

The solve-farm serving suite (``BENCH_serve.json``, see
:mod:`benchmarks.serve_bench`) is gated via ``--serve`` against
``benchmarks/baselines/serve_baseline.json``: admission verdicts, cache
hit/miss counts, audit counts and the invariance/convergence flags are
deterministic (admission is lock-serialised and the warm phase is
pre-warmed to an exact hit pattern) and gate exactly; hit rates and shed
fractions gate within float round-off; total iteration counts get the
small absolute allowance when configs match; throughputs, their
warm-over-cold ratio and latency percentiles are machine-dependent
(``--check-timings`` only); wall seconds are never gated.  That a warm
request skips the entire setup pipeline is held on every serve run by the
suite's own exact-count claims (``serve_bench.failed_claims``), which need
no baseline; the speedup carries no absolute floor, because the ratio is
1 + set-up/solve of one small system (docs/SERVING.md has the numbers).

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py            # quick run
    PYTHONPATH=src python scripts/check_bench_regression.py --bench BENCH_kernels.json
    PYTHONPATH=src python scripts/check_bench_regression.py --solver --bench BENCH_solver.json
    PYTHONPATH=src python scripts/check_bench_regression.py --scaling --bench BENCH_scaling.json
    PYTHONPATH=src python scripts/check_bench_regression.py --conformance --bench BENCH_conformance.json
    PYTHONPATH=src python scripts/check_bench_regression.py --cache --bench BENCH_cache.json
    PYTHONPATH=src python scripts/check_bench_regression.py --serve --bench BENCH_serve.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

BASELINE = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "baselines"
    / "bench_baseline.json"
)

#: Deterministic counters, gated on every run.
GATED_METRICS = {
    "bench.pcg_hot_allocs": {"rel": 0.0, "abs": 0.0},
    "bench.pcg.workspace_allocs_hot": {"rel": 0.0, "abs": 0.0},
}

#: Config-dependent counters, gated only when fresh config == baseline config.
CONFIG_METRICS = {
    "bench.pcg.iterations": {"rel": 0.0, "abs": 2.0},
    "bench.precond_nnz_ratio": {"rel": 0.0, "abs": 1e-12},
}

#: Machine-dependent ratios, opt-in via --check-timings.
TIMING_METRICS = {
    "bench.spmv_speedup_largest": {"rel": 0.9},
    "bench.spmv_transpose_speedup_largest": {"rel": 0.9},
    "bench.precond_apply_ratio": {"rel": 0.9},
}

#: Suite configuration of the recorded baseline (quick smoke sizes).
BASELINE_SIZES = (12, 16)

SOLVER_BASELINE = BASELINE.parent / "solver_baseline.json"

SCALING_BASELINE = BASELINE.parent / "scaling_baseline.json"

CONFORMANCE_BASELINE = BASELINE.parent / "conformance_baseline.json"

CACHE_BASELINE = BASELINE.parent / "cache_baseline.json"

SERVE_BASELINE = BASELINE.parent / "serve_baseline.json"


def serve_tolerances(baseline, *, config_matches: bool, check_timings: bool) -> dict:
    """Per-metric tolerances for the solve-farm serving suite
    (``BENCH_serve.json``, see :mod:`benchmarks.serve_bench`).

    Admission counts, cache hit/miss/build counters, audit counts and the
    invariance/convergence flags are deterministic (the admission phase is
    a synchronous replay of a fixed request pattern; the warm phase is
    pre-warmed so every timed request hits the structure tier) and gate
    exactly.  Hit rates and shed fractions are exact ratios of those
    counts (float round-off band only).  Total PCG iterations depend on
    the benchmarked grid (config-gated, small absolute allowance).
    Throughputs, the warm-over-cold speedup and latency percentiles are
    machine-dependent and gate only with ``--check-timings``; wall seconds
    are never gated.
    """
    tolerances = {}
    for name in baseline.metrics:
        if name.endswith(
            (".admitted", ".shed", ".shed_queue_full", ".shed_tenant_budget",
             ".shed_unknown", ".solves", ".structure_builds", ".cache_hits",
             ".cache_misses", ".structure_hits", ".structure_misses",
             ".system_hits", ".system_misses", ".audits", ".audit_violations",
             ".schedule_invariant", ".converged")
        ):
            tolerances[name] = {"rel": 0.0, "abs": 0.0}
        elif name.endswith((".hit_rate", ".shed_fraction")):
            tolerances[name] = {"rel": 1e-9}
        elif name.endswith(".iterations_total") and config_matches:
            tolerances[name] = {"rel": 0.0, "abs": 2.0}
        elif name.endswith(
            (".throughput_rps", ".warm_cold_speedup", ".p50_ms", ".p95_ms",
             ".p99_ms")
        ) and check_timings:
            tolerances[name] = {"rel": 0.9}
    return tolerances


def cache_tolerances(baseline, *, config_matches: bool, check_timings: bool) -> dict:
    """Per-metric tolerances for the cache free-ride suite
    (``BENCH_cache.json``, see :mod:`benchmarks.cache_bench`).

    Every metric is a deterministic function of the matrix, partition seed
    and cache geometry — no timings anywhere — so integer counts and claim
    flags gate exactly and the derived float fractions get a band that only
    absorbs round-off, not behaviour.  ``config_matches`` and
    ``check_timings`` are accepted for signature uniformity; a quick run is
    an exact key-subset of the full baseline, so the shared metrics gate
    identically either way.
    """
    del config_matches, check_timings
    tolerances = {}
    for name in baseline.metrics:
        if name.endswith(
            (".nnz", ".misses", ".ext_accesses", ".free_rides",
             ".free_ride_majority", ".misses_per_nnz_ok", ".free_ride_rises")
        ):
            tolerances[name] = {"rel": 0.0, "abs": 0.0}
        elif name.endswith(
            (".free_ride_pct", ".free_ride_local_pct", ".free_ride_halo_pct",
             ".misses_per_nnz", ".model_ratio")
        ):
            tolerances[name] = {"rel": 1e-9}
    return tolerances


def conformance_tolerances(
    baseline, *, config_matches: bool, check_timings: bool
) -> dict:
    """Per-metric tolerances for the model-conformance suite
    (``BENCH_conformance.json``, see :mod:`benchmarks.conformance_bench`).

    Structural flags, solver traffic totals, sampled-rank counts, telemetry
    message counts and telemetry byte/payload sizes are deterministic (the
    streamed floats are modeled seconds) and gate exactly; iteration counts
    get the usual small absolute allowance; the measured/predicted phase
    ratios divide a simulated schedule by a closed-form prediction and gate
    to float round-off — the absolute-band gate lives in
    ``scripts/check_model_conformance.py``.  Straggler counts and wall
    seconds are never gated.
    """
    tolerances = {}
    for name in baseline.metrics:
        if name.endswith(
            (".invariant", ".halo_invariant", ".telemetry_excluded",
             ".sampled_ranks", ".telemetry_messages", ".payload_bytes",
             ".telemetry_bytes", ".messages", ".bytes")
        ):
            tolerances[name] = {"rel": 0.0, "abs": 0.0}
        elif name.endswith(".iterations") and config_matches:
            tolerances[name] = {"rel": 0.0, "abs": 2.0}
        elif ".ratio." in name:
            tolerances[name] = {"rel": 1e-9}
    return tolerances


def scaling_tolerances(baseline, *, config_matches: bool, check_timings: bool) -> dict:
    """Per-metric tolerances for the weak-scaling suite
    (``BENCH_scaling.json``, see :mod:`benchmarks.scaling_bench`).

    Message and byte totals are exact under per-edge coalescing (the
    transport records one message per (src, dst) pair per epoch with the
    summed payload bytes), and the two communication-invariance flags gate
    exactly; iteration counts get the usual small absolute allowance;
    modeled milliseconds and the modeled max BSP wait are analytic but
    float-accumulated (narrow relative band, opt-in).  Wall-clock seconds
    are recorded for context and never gated.
    """
    tolerances = {}
    for name in baseline.metrics:
        if name.endswith((".messages", ".bytes", ".invariant", ".halo_invariant")):
            tolerances[name] = {"rel": 0.0, "abs": 0.0}
        elif name.endswith(".iterations") and config_matches:
            tolerances[name] = {"rel": 0.0, "abs": 2.0}
        elif name.endswith((".modeled_ms", ".max_bsp_wait_ms")) and check_timings:
            tolerances[name] = {"rel": 0.1}
    return tolerances


def solver_tolerances(baseline, *, config_matches: bool, check_timings: bool) -> dict:
    """Per-metric tolerances for a solve-level suite, keyed off the baseline.

    nnz counts and invariance flags are pure functions of the generator seed
    and gate exactly; iteration counts additionally depend on the suite
    configuration; modeled milliseconds come from the analytic cost model
    (deterministic, but float-accumulated) and get a narrow relative band.
    """
    tolerances = {}
    for name in baseline.metrics:
        if name.endswith(".nnz") or name.endswith(".invariant"):
            tolerances[name] = {"rel": 0.0, "abs": 0.0}
        elif name.endswith(".iterations") and config_matches:
            tolerances[name] = {"rel": 0.0, "abs": 2.0}
        elif name.endswith(".modeled_ms") and check_timings:
            tolerances[name] = {"rel": 0.1}
    return tolerances


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench",
        help="existing BENCH_kernels.json to check (default: run a quick suite)",
    )
    parser.add_argument("--baseline", help="baseline report (defaults per suite kind)")
    parser.add_argument(
        "--solver",
        action="store_true",
        help="gate a solve-level suite (BENCH_solver.json) instead of kernels",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="gate the weak-scaling suite (BENCH_scaling.json) instead of kernels",
    )
    parser.add_argument(
        "--conformance",
        action="store_true",
        help="gate the model-conformance suite (BENCH_conformance.json) "
        "instead of kernels",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="gate the cache free-ride suite (BENCH_cache.json) "
        "instead of kernels",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="gate the solve-farm serving suite (BENCH_serve.json) "
        "instead of kernels",
    )
    parser.add_argument(
        "--check-timings",
        action="store_true",
        help="also gate speedup ratios / modeled times (not for CI by default)",
    )
    args = parser.parse_args(argv)

    from repro.observe import ReportError, RunReport

    benchdir = str(Path(__file__).resolve().parent.parent / "benchmarks")
    if args.bench:
        try:
            fresh = RunReport.load(args.bench)
        except ReportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        source = fresh.meta.get("source")
        if args.serve or source == "serve-bench":
            kind = "serve"
        elif args.cache or source == "cache-bench":
            kind = "cache"
        elif args.conformance or source == "conformance-bench":
            kind = "conformance"
        elif args.scaling or source == "scaling-bench":
            kind = "scaling"
        elif args.solver or source == "solver-bench":
            kind = "solver"
        else:
            kind = "kernels"
    elif args.serve:
        kind = "serve"
        sys.path.insert(0, benchdir)
        from serve_bench import run_serve_suite

        fresh = RunReport.from_serve_bench(
            run_serve_suite(quick=True), label="fresh"
        )
    elif args.cache:
        kind = "cache"
        sys.path.insert(0, benchdir)
        from cache_bench import run_cache_suite

        fresh = RunReport.from_cache_bench(
            run_cache_suite(quick=True), label="fresh"
        )
    elif args.conformance:
        kind = "conformance"
        sys.path.insert(0, benchdir)
        from conformance_bench import run_conformance_suite

        fresh = RunReport.from_conformance_bench(
            run_conformance_suite(quick=True), label="fresh"
        )
    elif args.scaling:
        kind = "scaling"
        sys.path.insert(0, benchdir)
        from scaling_bench import run_scaling_suite

        fresh = RunReport.from_scaling_bench(
            run_scaling_suite(quick=True), label="fresh"
        )
    elif args.solver:
        kind = "solver"
        sys.path.insert(0, benchdir)
        from solver_bench import run_solver_suite

        fresh = RunReport.from_solver_bench(
            run_solver_suite(quick=True), label="fresh"
        )
    else:
        kind = "kernels"
        from repro.kernels.bench import run_suite

        result = run_suite(sizes=BASELINE_SIZES, reps=1, quick=True)
        fresh = RunReport.from_bench(result, label="fresh")

    default_baseline = {
        "kernels": BASELINE,
        "solver": SOLVER_BASELINE,
        "scaling": SCALING_BASELINE,
        "conformance": CONFORMANCE_BASELINE,
        "cache": CACHE_BASELINE,
        "serve": SERVE_BASELINE,
    }[kind]
    try:
        baseline = RunReport.load(args.baseline or default_baseline)
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    config_matches = fresh.meta.get("config") == baseline.meta.get("config")
    if kind in ("solver", "scaling", "conformance", "cache", "serve"):
        # quick runs cover a subset (matrices / scales / rungs); compare
        # only on shared metrics
        config_matches = config_matches or set(fresh.metrics) <= set(
            baseline.metrics
        )
        tolerance_fn = {
            "solver": solver_tolerances,
            "scaling": scaling_tolerances,
            "conformance": conformance_tolerances,
            "cache": cache_tolerances,
            "serve": serve_tolerances,
        }[kind]
        tolerances = tolerance_fn(
            baseline,
            config_matches=config_matches,
            check_timings=args.check_timings,
        )
        tolerances = {k: v for k, v in tolerances.items() if k in fresh.metrics}
    else:
        tolerances = dict(GATED_METRICS)
        if config_matches:
            tolerances.update(CONFIG_METRICS)
        if args.check_timings:
            tolerances.update(TIMING_METRICS)
        # setup.refilter rows: the rows each finalize kept / copied from the
        # base factor / solved again are exact counts of the grid; its
        # milliseconds are a timing
        for name in baseline.metrics:
            if name.startswith("bench.refilter."):
                if name.endswith(".ms"):
                    if args.check_timings:
                        tolerances[name] = {"rel": 0.9}
                elif config_matches:
                    tolerances[name] = {"rel": 0.0, "abs": 0.0}
    if not config_matches:
        print(
            "note: suite configs differ, skipping iteration-count gate "
            f"(baseline {baseline.meta.get('config')}, fresh {fresh.meta.get('config')})"
        )

    gated = sorted(name for name in tolerances if name in baseline.metrics)
    comparison = baseline.compare(fresh, tolerances, metrics=gated)
    print(comparison.render())
    failed = not comparison.passed
    if failed:
        print(
            "FAIL: benchmark counters regressed beyond the recorded baseline",
            file=sys.stderr,
        )
    if kind == "serve":
        sys.path.insert(0, benchdir)
        from serve_bench import failed_claims

        summary = {
            name.removeprefix("serve."): value
            for name, value in fresh.metrics.items()
        }
        try:
            problems = failed_claims(
                {"config": fresh.meta["config"], "summary": summary}
            )
        except KeyError as exc:
            problems = [f"serve document lacks {exc}"]
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
            failed = True
        if not problems:
            print(
                "serve cache: no timed warm request built anything, every "
                "cold request did (rungs "
                f"{', '.join(map(str, fresh.meta['config']['rungs']))})"
            )
    if failed:
        return 1
    print("OK: benchmark counters within tolerance of the baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
