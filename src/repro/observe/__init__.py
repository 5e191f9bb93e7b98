"""Observability layer: interpretation on top of :mod:`repro.instrument`.

PR 1 gave the repo raw sinks (spans, counters, trace exports); this package
turns them into artifacts that answer the paper's questions directly:

* :mod:`repro.observe.flight` — the solver flight recorder:
  :class:`FlightRecord` parses per-iteration ``flight.*`` events (residual
  norms, alpha/beta, true-residual drift checks, divergence) out of a tracer
  and runs stagnation/divergence detectors over them;
* :mod:`repro.observe.audit` — communication-invariance verdicts:
  :func:`compare_snapshots` proves or refutes, with the offending edges,
  that two tracker snapshots (or two :func:`schedule_snapshot` s) carry
  identical halo traffic (the paper's §4 claim as an executable check);
* :mod:`repro.observe.report` — :class:`RunReport`, a versioned JSON
  aggregate of all of the above with text/markdown renderers, a ``repro
  report`` CLI subcommand, and a :meth:`RunReport.compare` regression gate;
* :mod:`repro.observe.timeline` — cross-rank timeline reconstruction:
  :class:`Timeline` merges per-rank span streams from SPMD runs into
  compute/pack/wait/reduction segments with critical-path analysis;
  :func:`halo_critical_path` derives the static, byte-comparable halo
  critical path straight from a schedule;
* :mod:`repro.observe.explain` — :func:`attribute` judges per-method
  :class:`MethodFacts` into a versioned :class:`AttributionVerdict` with
  named suspects when achieved diverges from predicted;
* :mod:`repro.observe.prom` — Prometheus/OpenMetrics text exposition for
  any metrics registry and timeline aggregates
  (:func:`write_openmetrics`);
* :mod:`repro.observe.stream` — bounded-memory streaming telemetry:
  per-rank log-bucketed :class:`StreamingHistogram` s over wait / compute /
  message-size distributions, deterministic rank sampling
  (:func:`sampled_ranks`), and a binomial-tree reduction booked as
  telemetry traffic, which the auditors exclude by construction;
* :mod:`repro.observe.conformance` — α–β model-conformance verdicts:
  :class:`ConformanceReport` compares :mod:`repro.perfmodel` predictions
  against streamed measurements per phase and rank count, detects
  straggler ranks via robust z-scores, and feeds named suspects into
  :func:`attribute`;
* :mod:`repro.observe.memtraffic` — per-cache-line memory-traffic
  attribution: :class:`FreeRideLedger` classifies every extension-entry
  ``x`` access of the replayed ``Gᵀ(Gx)`` stream as free ride vs new fill
  with reuse-distance histograms, and :class:`CacheConformance` gates the
  paper's cache claims (free-ride majority, larger lines ⇒ larger gains,
  misses-per-nnz not worse than FSAI) against the perfmodel memory term.

Import layering: this package sits *above* :mod:`repro.instrument` and
*below* nothing — it must never import :mod:`repro.core` (solvers emit plain
tracer events; observe only reads them back), so the core package stays
importable without the observability layer and no cycle can form.
"""

from repro.observe.memtraffic import (
    CATEGORIES,
    CacheConformance,
    FreeRideLedger,
    MemTrafficError,
    RankLedger,
    cache_conformance_samples,
    ledger_samples,
)
from repro.observe.conformance import (
    ConformanceError,
    ConformanceReport,
    RankCountConformance,
    conformance_samples,
)
from repro.observe.stream import (
    ClusterTelemetry,
    StreamingHistogram,
    TelemetryConfig,
    sampled_ranks,
)
from repro.observe.audit import InvarianceVerdict, compare_snapshots, schedule_snapshot
from repro.observe.explain import (
    AttributionVerdict,
    ExplainError,
    MethodFacts,
    Suspect,
    attribute,
)
from repro.observe.flight import DIVERGENCE_FACTOR, TRUE_RESIDUAL_INTERVAL, FlightRecord
from repro.observe.prom import timeline_samples, write_openmetrics
from repro.observe.report import MetricDelta, ReportComparison, ReportError, RunReport
from repro.observe.timeline import (
    CriticalPath,
    HaloCriticalPath,
    Timeline,
    TimelineError,
    halo_critical_path,
)

__all__ = [
    "TRUE_RESIDUAL_INTERVAL",
    "DIVERGENCE_FACTOR",
    "FlightRecord",
    "InvarianceVerdict",
    "compare_snapshots",
    "schedule_snapshot",
    "ReportError",
    "MetricDelta",
    "ReportComparison",
    "RunReport",
    "TimelineError",
    "CriticalPath",
    "Timeline",
    "HaloCriticalPath",
    "halo_critical_path",
    "ExplainError",
    "MethodFacts",
    "Suspect",
    "AttributionVerdict",
    "attribute",
    "write_openmetrics",
    "timeline_samples",
    "StreamingHistogram",
    "sampled_ranks",
    "ClusterTelemetry",
    "TelemetryConfig",
    "ConformanceError",
    "RankCountConformance",
    "ConformanceReport",
    "conformance_samples",
    "CATEGORIES",
    "MemTrafficError",
    "RankLedger",
    "FreeRideLedger",
    "CacheConformance",
    "ledger_samples",
    "cache_conformance_samples",
]
