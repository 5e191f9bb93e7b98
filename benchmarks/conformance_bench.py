"""Model-conformance benchmark at scale: ``BENCH_conformance.json``.

Where ``BENCH_scaling.json`` (see :mod:`benchmarks.scaling_bench`) proves the
SPMD engine *runs* at 64–4096 simulated ranks, this suite proves it can be
*observed* at that scale without perturbing what it observes:

* in-band telemetry — per-rank streaming histograms + counters on every
  rank, full span recording on a deterministic sampled subset — is
  aggregated over the simulator's own O(log P) reduction tree
  (:func:`repro.observe.stream.aggregate_telemetry`) rather than a P-way
  central gather, and its wire traffic rides a dedicated tag that the
  invariance auditors exclude by construction;
* the α–β :class:`repro.perfmodel.CostModel` prediction for each phase
  (compute, halo, reduction) is compared against the streamed measurement
  of the simulated schedule — the engine runs on the same machine's
  :class:`repro.mpisim.ClockModel` — at every rung of a strong-scaled
  ladder, yielding the per-phase measured/predicted ratios (O(1) and exact:
  both sides are deterministic) and straggler verdicts of a
  :class:`repro.observe.ConformanceReport`;
* the paper's §4 schedule-invariance guarantee is re-proved *with
  telemetry enabled*: FSAI and FSAIE-Comm halo updates both stream
  telemetry, and their tracker snapshots must still match edge-for-edge
  while the telemetry byte counters are nonzero (``telemetry_excluded``);
* the streamed artifact stays sublinear in P — O(sampled ranks + log-bucket
  histograms), recorded per rung as ``payload_bytes`` and gated by
  ``scripts/check_model_conformance.py`` against both the rank-count growth
  and a full-trace volume estimate.

The ladder strong-scales one fixed Poisson grid (``GRID``² rows) over 64,
256 and 1024 ranks with a fixed iteration budget, so per-rung solver work is
deterministic and the *observability* cost is the only thing that varies
with P.

``scripts/check_model_conformance.py`` gates the structural facts and holds
every ratio in an absolute band;
``scripts/check_bench_regression.py --conformance`` gates the deterministic
summary metrics.

Run::

    PYTHONPATH=src python benchmarks/conformance_bench.py          # full ladder
    PYTHONPATH=src python benchmarks/conformance_bench.py --quick  # 64 ranks only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import build_fsai, build_fsaie_comm, check_comm_invariance  # noqa: E402
from repro.dist import (  # noqa: E402
    DistMatrix,
    DistVector,
    RowPartition,
    spmd_halo_update,
    spmd_pipelined_pcg,
)
from repro.matgen import paper_rhs, poisson2d  # noqa: E402
from repro.mpisim import CommTracker  # noqa: E402
from repro.observe import (  # noqa: E402
    ConformanceReport,
    RankCountConformance,
    TelemetryConfig,
    compare_snapshots,
)
from repro.perfmodel import MACHINES, CostModel  # noqa: E402

#: Strong-scaling ladder: one fixed ``GRID``² Poisson system split over a
#: growing rank count, so the solve is identical work at every rung and the
#: telemetry payload/traffic is the only quantity that scales with P.
GRID = 96
SCALES = (64, 256, 1024)
QUICK_SCALES = (64,)

#: Fixed iteration budget: convergence-to-tolerance would make the per-rung
#: observation window depend on rounding in the (deterministic but
#: partition-dependent) residual history; a fixed budget keeps the number of
#: observed iterations — and hence every deterministic counter — identical
#: across rungs and runs.
RTOL = 1e-6
MAX_ITERATIONS = 30
RHS_SEED = 9
MODEL_MACHINE = "skylake"
#: Full span recording on this many deterministically spread ranks; the
#: other P−k ranks ship histograms + counters only.
RANK_SAMPLE = 8

#: Full-trace volume estimate used by the sublinearity gate: one trace event
#: is ~96 B of JSON, and a traced solve emits at least one wait + one send
#: event per message plus a compute span per iteration per rank.
_TRACE_EVENT_BYTES = 96


def _halo_invariance_with_telemetry(pre, pre_comm, b: DistVector) -> tuple[bool, bool]:
    """Re-prove §4 invariance on the wire *with telemetry enabled*.

    Both preconditioners' halo updates run with streaming telemetry;
    returns ``(halo_invariant, telemetry_excluded)`` where the
    second requires telemetry traffic to have actually flowed while the
    point-to-point snapshots stayed identical — the auditors never see the
    telemetry tag.
    """
    trackers = []
    for pre_k in (pre, pre_comm):
        tr = CommTracker()
        for g in (pre_k.g, pre_k.gt):
            spmd_halo_update(
                g, b, tr, telemetry=TelemetryConfig(rank_sample=RANK_SAMPLE),
            )
        trackers.append(tr)
    verdict = compare_snapshots(
        trackers[0].snapshot(),
        trackers[1].snapshot(),
        base_label=pre.name,
        other_label=pre_comm.name,
        check_collectives=False,
    )
    telemetry_flowed = all(t.total_telemetry_bytes > 0 for t in trackers)
    return bool(verdict.invariant), bool(verdict.invariant and telemetry_flowed)


def run_rung(ranks: int, *, grid: int = GRID, machine_name: str = MODEL_MACHINE) -> dict:
    """One strong-scaled rung: telemetered solve + invariance + conformance."""
    machine = MACHINES[machine_name]
    mat = poisson2d(grid)
    part = RowPartition.from_matrix(mat, ranks, seed=ranks)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=RHS_SEED), part)

    pre = build_fsai(mat, part)
    pre_comm = build_fsaie_comm(mat, part)
    invariant = check_comm_invariance(pre, pre_comm)
    halo_invariant, telemetry_excluded = _halo_invariance_with_telemetry(
        pre, pre_comm, b
    )

    telemetry = TelemetryConfig(rank_sample=RANK_SAMPLE)
    tracker = CommTracker()
    t0 = time.perf_counter()
    _, iterations = spmd_pipelined_pcg(
        da,
        b,
        rtol=RTOL,
        max_iterations=MAX_ITERATIONS,
        precond_pair=(pre.g, pre.gt),
        tracker=tracker,
        clock=machine.clock_model(),
        telemetry=telemetry,
    )
    wall = time.perf_counter() - t0
    cluster = telemetry.result
    if cluster is None:
        raise RuntimeError(f"no telemetry aggregated at {ranks} ranks")

    model = CostModel(machine, threads_per_process=1)
    predicted = model.phase_seconds(da, pre, iterations=iterations,
                                    reduction_phases=1)
    # what a full trace of the same solve would have shipped: every message
    # produces a send + a wait event, every iteration a compute span per rank
    full_trace_bytes = _TRACE_EVENT_BYTES * (
        2 * tracker.total_messages + iterations * ranks
    )
    entry = RankCountConformance.from_cluster(
        ranks=ranks,
        iterations=iterations,
        predicted=predicted,
        cluster=cluster,
        extras={
            "invariant": bool(invariant),
            "halo_invariant": bool(halo_invariant),
            "telemetry_excluded": bool(telemetry_excluded),
            "messages": int(tracker.total_messages),
            "bytes": int(tracker.total_bytes),
            "telemetry_messages": int(tracker.total_telemetry_messages),
            "telemetry_bytes": int(tracker.total_telemetry_bytes),
            "full_trace_bytes": int(full_trace_bytes),
            "wall_s": float(wall),
        },
    )
    return entry.to_dict()


def run_conformance_suite(*, quick: bool = False) -> dict:
    """Run the strong-scaled conformance ladder; returns the suite document.

    ``summary`` is the flat comparable surface (consumed by
    :meth:`repro.observe.RunReport.from_conformance_bench`): per-rung
    iteration counts, exact message/byte totals, the three structural flags,
    payload sizes and per-phase measured/predicted ratios (deterministic:
    a simulated schedule over a closed-form prediction).  ``wall_s`` is the
    only machine-dependent number — recorded, never gated.
    """
    scales = QUICK_SCALES if quick else SCALES
    entries = []
    summary: dict = {}
    for ranks in scales:
        entry = run_rung(ranks)
        entries.append(entry)
        key = f"r{ranks}"
        extras = entry["extras"]
        summary[f"{key}.iterations"] = entry["iterations"]
        summary[f"{key}.sampled_ranks"] = entry["sampled_ranks"]
        summary[f"{key}.payload_bytes"] = entry["telemetry_payload_bytes"]
        summary[f"{key}.stragglers"] = len(entry["stragglers"])
        for flag in ("invariant", "halo_invariant", "telemetry_excluded"):
            summary[f"{key}.{flag}"] = int(extras[flag])
        for metric in ("messages", "bytes", "telemetry_messages",
                       "telemetry_bytes", "wall_s"):
            summary[f"{key}.{metric}"] = extras[metric]
        for phase in entry["phases"]:
            summary[f"{key}.ratio.{phase['phase']}"] = phase["ratio"]
    report = ConformanceReport(
        entries=[RankCountConformance.from_dict(e) for e in entries],
        meta={
            "case": f"poisson2d:{GRID}",
            "scales": list(scales),
            "machine": MODEL_MACHINE,
            "rank_sample": RANK_SAMPLE,
            "rtol": RTOL,
            "max_iterations": MAX_ITERATIONS,
        },
    )
    return {
        "suite": "conformance",
        "config": {
            "grid": GRID,
            "rows": GRID * GRID,
            "scales": list(scales),
            "rtol": RTOL,
            "max_iterations": MAX_ITERATIONS,
            "rhs_seed": RHS_SEED,
            "machine": MODEL_MACHINE,
            "rank_sample": RANK_SAMPLE,
        },
        "conformance": report.to_dict(),
        "summary": summary,
    }


def write_conformance_suite(result: dict, path, *, report: bool = True) -> Path:
    """Write the suite JSON (and its ``.report.json`` companion)."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if report:
        from repro.observe import RunReport

        RunReport.from_conformance_bench(result, label=path.stem).save(
            path.with_suffix(".report.json")
        )
    return path


def format_summary(result: dict) -> str:
    cfg = result["config"]
    lines = [
        "model conformance, strong-scaled poisson2d:%d "
        "(simulated and modeled on %s)" % (cfg["grid"], cfg["machine"]),
        "",
    ]
    header = (
        f"{'ranks':>6} {'iters':>6} {'compute x':>10} {'halo x':>8} "
        f"{'reduce x':>9} {'payload':>9} {'trace est':>10} {'wall s':>7} "
        f"{'inv':>4}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for entry in result["conformance"]["entries"]:
        ratios = {p["phase"]: p["ratio"] for p in entry["phases"]}
        ex = entry["extras"]
        inv = ("ok" if ex["invariant"] and ex["halo_invariant"]
               and ex["telemetry_excluded"] else "FAIL")
        lines.append(
            f"{entry['ranks']:>6} {entry['iterations']:>6} "
            f"{ratios.get('compute', 0.0):>10.3g} "
            f"{ratios.get('halo', 0.0):>8.3g} "
            f"{ratios.get('reduction', 0.0):>9.3g} "
            f"{entry['telemetry_payload_bytes']:>9} "
            f"{ex['full_trace_bytes']:>10} {ex['wall_s']:>7.2f} {inv:>4}"
        )
    n_verdicts = len(result["conformance"].get("verdicts", []))
    lines.append("")
    lines.append(f"divergence verdicts: {n_verdicts}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_conformance.json")
    parser.add_argument("--quick", action="store_true", help="64-rank rung only")
    args = parser.parse_args(argv)
    result = run_conformance_suite(quick=args.quick)
    print(format_summary(result))
    path = write_conformance_suite(result, args.output)
    print(f"\nwritten: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
