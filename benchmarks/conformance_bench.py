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
  histograms), recorded per rung as ``payload_bytes`` and held by the
  suite's claims against both the rank-count growth and a full-trace volume
  estimate.

The ladder itself is :func:`repro.perfmodel.ladders.conformance_ladder`,
the one ``repro conformance`` runs.  It strong-scales one fixed Poisson grid
(``GRID``² rows) over 64, 256 and 1024 ranks with a fixed iteration budget,
so per-rung solver work is deterministic and the *observability* cost is
the only thing that varies with P.

``scripts/check_bench.py conformance`` gates the deterministic summary
metrics, the structural facts and every ratio in an absolute band.

Run::

    PYTHONPATH=src python benchmarks/suites.py conformance          # full ladder
    PYTHONPATH=src python benchmarks/suites.py conformance --quick  # 64 ranks only
"""

from __future__ import annotations

from repro.matgen import poisson2d
from repro.perfmodel import MACHINES
from repro.perfmodel.ladders import STRUCTURAL_FLAGS, conformance_ladder

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


def run_conformance_suite(*, quick: bool = False) -> dict:
    """Run the strong-scaled conformance ladder; returns the suite document.

    The FSAI solve of each rung is partitioned with the rank count as seed.
    ``summary`` is the flat comparable surface (consumed by
    :meth:`repro.observe.RunReport.from_bench`): per-rung iteration counts,
    exact message/byte totals, the three structural flags, payload sizes
    and per-phase measured/predicted ratios (deterministic: a simulated
    schedule over a closed-form prediction).
    """
    scales = QUICK_SCALES if quick else SCALES
    report, _ = conformance_ladder(
        poisson2d(GRID), scales, machine=MACHINES[MODEL_MACHINE],
        method="fsai", rhs_seed=RHS_SEED, rank_sample=RANK_SAMPLE, rtol=RTOL,
        max_iterations=MAX_ITERATIONS,
        meta={
            "case": f"poisson2d:{GRID}",
            "scales": list(scales),
            "machine": MODEL_MACHINE,
            "rank_sample": RANK_SAMPLE,
            "rtol": RTOL,
            "max_iterations": MAX_ITERATIONS,
        },
    )
    summary: dict = {}
    for entry in report.entries:
        key = f"r{entry.ranks}"
        extras = entry.extras
        summary[f"{key}.iterations"] = entry.iterations
        summary[f"{key}.sampled_ranks"] = entry.sampled_ranks
        summary[f"{key}.payload_bytes"] = entry.telemetry_payload_bytes
        summary[f"{key}.stragglers"] = len(entry.stragglers)
        for flag in STRUCTURAL_FLAGS:
            summary[f"{key}.{flag}"] = int(extras[flag])
        for metric in ("messages", "bytes", "telemetry_messages",
                       "telemetry_bytes"):
            summary[f"{key}.{metric}"] = extras[metric]
        for phase in entry.phases:
            summary[f"{key}.ratio.{phase.phase}"] = phase.ratio
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


def format_summary(result: dict) -> str:
    cfg = result["config"]
    lines = [
        "model conformance, strong-scaled poisson2d:%d "
        "(simulated and modeled on %s)" % (cfg["grid"], cfg["machine"]),
        "",
    ]
    header = (
        f"{'ranks':>6} {'iters':>6} {'compute x':>10} {'halo x':>8} "
        f"{'reduce x':>9} {'payload':>9} {'trace est':>10} {'inv':>4}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for entry in result["conformance"]["entries"]:
        ratios = {p["phase"]: p["ratio"] for p in entry["phases"]}
        ex = entry["extras"]
        inv = "ok" if all(ex[flag] for flag in STRUCTURAL_FLAGS) else "FAIL"
        lines.append(
            f"{entry['ranks']:>6} {entry['iterations']:>6} "
            f"{ratios.get('compute', 0.0):>10.3g} "
            f"{ratios.get('halo', 0.0):>8.3g} "
            f"{ratios.get('reduction', 0.0):>9.3g} "
            f"{entry['telemetry_payload_bytes']:>9} "
            f"{ex['full_trace_bytes']:>10} {inv:>4}"
        )
    n_verdicts = len(result["conformance"].get("verdicts", []))
    lines.append("")
    lines.append(f"divergence verdicts: {n_verdicts}")
    return "\n".join(lines)

