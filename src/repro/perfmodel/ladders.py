"""The two model-conformance ladders behind ``repro conformance`` /
``repro cache`` and the ``conformance`` / ``cache`` benchmark suites.

* :func:`conformance_ladder` strong-scales one matrix over rank counts on
  the SPMD runtime with in-band telemetry, confronts
  :meth:`CostModel.phase_seconds` with the streamed per-phase measurement,
  and re-proves §4 halo invariance (``G`` and ``Gᵀ``) with telemetry on.
* :func:`cache_ladder` replays every method's ``Gᵀ(Gx)`` stream at every
  line geometry through the attributed cache simulator and confronts the
  fill traffic with the model's ``x``-read memory term.

Each returns its versioned report plus the raw evidence the OpenMetrics
exposition needs (telemetry clusters, ledgers).
"""

from __future__ import annotations

from repro.cachesim import CacheConfig, precond_x_misses_per_rank
from repro.core import (
    FilterSpec,
    PrecondOptions,
    build_fsai,
    build_fsaie,
    build_fsaie_comm,
    check_comm_invariance,
)
from repro.core.fsai import fsai_pattern
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.dist.spmd import spmd_halo_update, spmd_pipelined_pcg
from repro.errors import ReproError
from repro.matgen import PAPER_RTOL, paper_rhs
from repro.mpisim import CommTracker
from repro.observe import (
    CacheConformance,
    ConformanceReport,
    FreeRideLedger,
    RankCountConformance,
    TelemetryConfig,
    compare_snapshots,
)
from repro.perfmodel.model import CostModel

__all__ = ["STRUCTURAL_FLAGS", "conformance_ladder", "cache_ladder"]

BUILDERS = {"fsai": build_fsai, "fsaie": build_fsaie, "comm": build_fsaie_comm}

#: The per-rung facts of a conformance ladder that must hold exactly:
#: FSAIE-Comm keeps FSAI's halo schedule (statically, and on the wire with
#: telemetry on), and telemetry flowed without reaching the audited traffic.
STRUCTURAL_FLAGS = ("invariant", "halo_invariant", "telemetry_excluded")

#: Full-trace volume estimate: one trace event is ~96 B of JSON, and a
#: traced solve emits a send and a wait event per message plus a compute
#: span per iteration per rank.
TRACE_EVENT_BYTES = 96


def _audit_halos(base, comm, b: DistVector, clock, rank_sample) -> tuple[bool, bool]:
    """§4 on the wire with telemetry on: ``(halo_invariant,
    telemetry_excluded)`` of the ``G`` and ``Gᵀ`` halo updates of ``base``
    and ``comm``.  The second also needs telemetry bytes in both runs."""
    trackers = []
    for pre in (base, comm):
        tracker = CommTracker()
        for g in (pre.g, pre.gt):
            spmd_halo_update(g, b, tracker, clock=clock,
                             telemetry=TelemetryConfig(rank_sample=rank_sample))
        trackers.append(tracker)
    verdict = compare_snapshots(
        trackers[0].snapshot(), trackers[1].snapshot(),
        base_label=base.name, other_label=comm.name, check_collectives=False,
    )
    flowed = all(t.total_telemetry_bytes > 0 for t in trackers)
    return bool(verdict.invariant), bool(verdict.invariant and flowed)


def conformance_ladder(
    mat,
    ladder,
    *,
    machine,
    method: str = "comm",
    options: PrecondOptions | None = None,
    threads: int = 1,
    seed: int | None = None,
    rhs_seed: int = 0,
    rank_sample=8,
    rtol: float = PAPER_RTOL,
    max_iterations: int = 50_000,
    share_tolerance: float = 0.25,
    meta: dict | None = None,
) -> tuple[ConformanceReport, list]:
    """Model conformance of ``method``'s pipelined PCG at each rank count.

    Each rung partitions ``mat`` (``seed``; ``None`` seeds a rung with its
    rank count), solves on ``machine``'s modeled clock with
    ``TelemetryConfig(rank_sample=)``, and records the per-phase
    measured/predicted ratios plus the :data:`STRUCTURAL_FLAGS`, the solve's
    message/byte and telemetry totals and the full-trace volume estimate as
    the rung's ``extras``.  Returns the report and the rungs' aggregated
    :class:`~repro.observe.ClusterTelemetry`.
    """
    options = options or PrecondOptions()
    model = CostModel(machine, threads_per_process=threads)
    clock = machine.clock_model(threads)
    entries, clusters = [], []
    for ranks in ladder:
        part = RowPartition.from_matrix(
            mat, ranks, seed=ranks if seed is None else seed
        )
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, seed=rhs_seed), part)
        pres = {m: BUILDERS[m](mat, part, options)
                for m in dict.fromkeys(("fsai", "comm", method))}
        halo_invariant, telemetry_excluded = _audit_halos(
            pres["fsai"], pres["comm"], b, clock, rank_sample
        )
        pre = pres[method]
        telemetry = TelemetryConfig(rank_sample=rank_sample)
        tracker = CommTracker()
        _, iterations = spmd_pipelined_pcg(
            da, b, rtol=rtol, max_iterations=max_iterations,
            precond_pair=(pre.g, pre.gt), tracker=tracker, clock=clock,
            telemetry=telemetry,
        )
        cluster = telemetry.result
        if cluster is None:
            raise ReproError(f"no telemetry aggregated at {ranks} ranks "
                             f"(rank_sample={rank_sample!r})")
        clusters.append(cluster)
        entries.append(RankCountConformance.from_cluster(
            ranks=ranks,
            iterations=iterations,
            predicted=model.phase_seconds(da, pre, iterations=iterations,
                                          reduction_phases=1),
            cluster=cluster,
            extras={
                "invariant": bool(check_comm_invariance(pres["fsai"], pres["comm"])),
                "halo_invariant": halo_invariant,
                "telemetry_excluded": telemetry_excluded,
                "messages": int(tracker.total_messages),
                "bytes": int(tracker.total_bytes),
                "telemetry_messages": int(tracker.total_telemetry_messages),
                "telemetry_bytes": int(tracker.total_telemetry_bytes),
                "full_trace_bytes": TRACE_EVENT_BYTES * (
                    2 * int(tracker.total_messages) + iterations * ranks
                ),
            },
        ))
    report = ConformanceReport(entries=entries, meta=dict(meta or {}),
                               share_tolerance=share_tolerance)
    return report, clusters


def cache_ladder(
    mat,
    part: RowPartition,
    *,
    machine,
    methods=tuple(BUILDERS),
    line_sizes=(64, 256),
    threads: int = 1,
    filter: FilterSpec = FilterSpec(),
    meta: dict | None = None,
) -> tuple[CacheConformance, list]:
    """Free-ride ledgers of every (line geometry, method) cell.

    ``machine``'s L1 capacity and associativity (scaled to ``threads``) are
    held while the line size sweeps, so the geometry effect is isolated;
    every ledger classifies extension accesses against the FSAI pattern of
    its geometry.  Returns the :class:`~repro.observe.CacheConformance`
    (``meta`` plus ranks, machine and line sizes) and the ledgers.
    """
    model = CostModel(machine, threads_per_process=threads)
    report = CacheConformance(meta={
        **(meta or {}),
        "ranks": part.nparts,
        "machine": machine.name,
        "line_sizes": list(line_sizes),
    })
    ledgers = []
    for line_bytes in line_sizes:
        options = PrecondOptions(line_bytes=line_bytes, filter=filter)
        base_pattern = fsai_pattern(mat, options.fsai)
        base_g = base_pattern.to_csr()
        base_gt = base_pattern.transpose().to_csr()
        config = CacheConfig(
            machine.l1.size_bytes, line_bytes, machine.l1.associativity
        ).scaled(threads)
        for method in methods:
            pre = BUILDERS[method](mat, part, options)
            ledger = FreeRideLedger(method=pre.name, line_bytes=line_bytes,
                                    base_g=base_g, base_gt=base_gt)
            precond_x_misses_per_rank(pre.g, pre.gt, config, ledger=ledger)
            report.add_ledger(
                ledger, modeled_x_bytes=float(model.precond_x_read_bytes(pre).sum())
            )
            ledgers.append(ledger)
    return report, ledgers
