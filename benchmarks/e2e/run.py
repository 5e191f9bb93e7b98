"""Whole-run benchmark: ``python3 benchmarks/e2e/run.py [--workload NAME] ...``.

Load shape: batch jobs in a closed loop, one job at a time, one process
pinned to one CPU.  A *repetition* runs one workload driver from matrix
generation to the checked answer on fresh objects.  A *run* is one untimed
warm-up on a tiny problem, then repetitions until ``--seconds`` is used up.
Timings are medians over repetitions.

``--trace 0`` (default) prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions, checks that both
produce the same counts, adds the layer probes and prints the per-layer
metrics; spans go to ``benchmarks/e2e/out/trace_<workload>.json``.

Without ``--workload`` every workload runs, each in its own child process,
so peak memory and leftover threads of one do not leak into the next.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check is named
on standard error and the exit code is 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"

_SOLVE_SPANS = ("core.pcg", "core.pipelined_pcg")
_SHARE_GROUPS = (
    "matgen", "partition", "dist", "core", "solve", "cachesim", "perfmodel", "mpisim", "check",
)


def load_contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def prepare_process() -> int:
    """Pin to one CPU and keep BLAS single-threaded; call before numpy is imported.

    On the shared two-core box an unpinned 256-rank run spreads 2-3x in wall
    time from interpreter-lock convoying across cores; pinned it repeats
    within a few percent.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(cpu: int) -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def summarize(values: list[float]) -> dict:
    """Median, quartiles, extremes and sample count of one timing."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def layer_metrics(profile: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition: time busy, counts, shares of wall."""
    from workloads import SPAN_NAMES

    busy, wall = profile["busy"], profile["wall"]
    m = {f"{name}_s": busy.get(name, 0.0) for name in SPAN_NAMES}
    krylov_s = sum(busy.get(name, 0.0) for name in _SOLVE_SPANS)
    spmd_s = busy.get("mpisim.pipelined", 0.0) + busy.get("mpisim.cg", 0.0)
    replay_s = busy.get("cachesim.replay", 0.0)
    m["core.nnz_g"] = counts["nnz_g"]
    m["core.ext_nnz_unfiltered"] = counts["ext_nnz_unfiltered"]
    m["core.iterations"] = counts["krylov_iterations"]
    m["core.ms_per_iter"] = (
        1e3 * krylov_s / counts["krylov_iterations"] if counts["krylov_iterations"] else 0.0
    )
    m["cachesim.accesses"] = counts["cache_accesses"]
    m["cachesim.misses"] = counts["cache_misses"]
    m["cachesim.accesses_per_s"] = counts["cache_accesses"] / replay_s if replay_s else 0.0
    m["perfmodel.modeled_ms"] = counts["modeled_ms"]
    m["mpisim.messages"] = counts["messages"]
    m["mpisim.bytes"] = counts["bytes"]
    m["mpisim.msgs_per_s"] = counts["messages"] / spmd_s if spmd_s else 0.0
    m["mpisim.wall_per_modeled"] = spmd_s / (counts["modeled_ms"] * 1e-3) if spmd_s else 0.0
    shares = dict.fromkeys(_SHARE_GROUPS, 0.0)
    for name, self_s in profile["self"].items():
        group = "solve" if name in _SOLVE_SPANS else name.split(".", 1)[0]
        shares[group] += self_s
    for group, self_s in shares.items():
        m[f"share.{group}_pct"] = 100.0 * self_s / wall
    m["trace.coverage_pct"] = 100.0 * profile["covered"] / wall
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One run of one workload in this process; returns its result document."""
    import spans
    import workloads

    driver = workloads.DRIVERS[name]
    rec = spans.Recorder(name)
    driver(workloads.SIZES["smoke"][name], seed, rec)  # warm-up: imports, lazy set-up

    reps = []  # (traced, Outcome)
    inputs = None
    rounds = 0
    started = time.perf_counter()
    while True:
        for traced in (False, True) if trace else (False,):
            gc.collect()
            rec.enabled, rec.rep = traced, len(reps)
            with rec.span(spans.ROOT):
                out = driver(workloads.SIZES[size][name], seed, rec)
            # only the probes need the built objects; dropping them keeps a
            # repetition from sharing memory with the next one
            if trace:
                inputs = out.inputs
            out.inputs = None
            reps.append((traced, out))
        rounds += 1
        elapsed = time.perf_counter() - started
        # start another round only if at least half of it fits
        if elapsed + 0.5 * elapsed / rounds > seconds:
            break

    untraced = [out for traced, out in reps if not traced]
    failures = [f"rep {i}: {label}" for i, (_, out) in enumerate(reps) for label in out.failures]
    counts = reps[0][1].counts
    if any(out.counts != counts for _, out in reps):
        failures.append("counts differ between repetitions (or traced vs untraced)")
    attempted = sum(out.attempted for _, out in reps)
    failed = sum(len(out.failures) for _, out in reps)

    timings = {
        "wall_s": [out.wall_s for out in untraced],
        "setup_s": [out.setup_s for out in untraced],
        "post_setup_s": [out.wall_s - out.setup_s for out in untraced],
    }
    stats = {key: summarize(values) for key, values in timings.items()}
    if trace:
        per_rep = [
            layer_metrics(spans.rep_profile(rec.spans, i), counts)
            for i, (traced, _) in enumerate(reps)
            if traced
        ]
        values = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
        traced_wall = statistics.median(out.wall_s for traced, out in reps if traced)
        values["trace.overhead_pct"] = 100.0 * (traced_wall / stats["wall_s"]["median"] - 1.0)
        values.update(workloads.probes(inputs))
        spans.write_trace(OUT / f"trace_{name}.json", rec)
    else:
        values = {key: s["median"] for key, s in stats.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["iterations"] = counts["iterations"]
    declared = load_contract()["per_layer" if trace else "end_to_end"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "trace": int(trace),
        "reps": len(reps),
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "failures": failures,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
        "stats": stats,
        "counts": counts,
    }


def report(result: dict) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    print(
        f"== {result['workload']}  seed {result['seed']}  size {result['size']}  "
        f"{result['reps']} repetitions  trace {result['trace']}"
    )
    for name, metric in result["metrics"].items():
        line = f"{name:34s} {metric['value']:14.6g} {metric['unit']}"
        s = result["stats"].get(name)
        if s:
            line += (
                f"   q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  min {s['min']:.4g}  "
                f"max {s['max']:.4g}  n {s['n']}"
            )
        print(line)
    print(
        f"ops_attempted {result['attempted']}  ops_failed {result['failed']}  "
        f"fail_share {result['fail_share']:.4g}"
    )
    for failure in result["failures"]:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def run_all(args, contract: dict) -> int:
    """Each workload in its own child process, one after another."""
    merged: dict = {"env": None, "workloads": {}}
    code = 0
    for workload in contract["workloads"]:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        ]
        part = Path(f"{args.json}.{workload['name']}.part")
        if args.json:
            command += ["--json", str(part)]
        code = subprocess.run(command).returncode or code
        if args.json and part.exists():
            doc = json.loads(part.read_text())
            merged["env"] = merged["env"] or doc["env"]
            merged["workloads"].update(doc["workloads"])
            part.unlink()
    if args.json:
        Path(args.json).write_text(json.dumps(merged, indent=1) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all, one child process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", help="also write the full result document here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, contract)

    cpu = prepare_process()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    report(result)
    if args.json:
        doc = {"env": environment(cpu), "workloads": {args.workload: result}}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
