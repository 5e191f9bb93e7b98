"""Unified run reports: one versioned JSON artifact per run, plus a
regression comparator.

A :class:`RunReport` aggregates what the other observe pieces produce —
flight-recorder summaries, invariance verdicts, timeline and attribution
summaries, timer and metric snapshots — into a single document with a
versioned schema (``format: "repro-run-report"``, ``version: 2``):

* ``meta`` — free-form provenance (label, matrix, ranks, ...);
* ``sections`` — named nested dictionaries (``flight``, ``invariance``,
  ``kernels``, ...), each the ``to_dict()``/``summary()`` of one
  observe object;
* ``metrics`` — a *flat* ``name -> number`` mapping, the comparable surface
  :meth:`RunReport.compare` diffs between two runs.

Builders exist for every producer in the repo: a live tracer/metrics pair
(:meth:`from_run`), an exported ``repro-trace`` document
(:meth:`from_trace_doc`) and any benchmark suite document
(:meth:`from_bench`); :meth:`load`
dispatches on the file's declared format (a suite document on its
``suite`` key) and raises :class:`ReportError` — not a traceback — on
malformed or unsupported input.  :meth:`compare` implements the comparator
of ``scripts/check_bench.py`` and the ``repro report --compare``
subcommand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.tables import format_kv, format_table
from repro.errors import ReproError
from repro.instrument import TraceError, read_json_trace
from repro.observe.flight import FlightRecord

__all__ = [
    "REPORT_FORMAT",
    "REPORT_VERSION",
    "ReportError",
    "flatten_metrics",
    "MetricDelta",
    "ReportComparison",
    "RunReport",
]

#: Schema identifier and version stamped into every saved report.
REPORT_FORMAT = "repro-run-report"
REPORT_VERSION = 2


class ReportError(ReproError):
    """A run-report file is malformed, unsupported, or from a newer schema."""


def _flatten_key(name: str, tags: dict) -> str:
    if not tags:
        return name
    inner = ",".join(f"{k}={tags[k]}" for k in sorted(tags))
    return f"{name}{{{inner}}}"


def flatten_metrics(collected: list[dict]) -> dict[str, float]:
    """Flatten a :meth:`MetricsRegistry.collect` snapshot into the report's
    comparable ``name -> number`` surface.

    Counters and gauges contribute their value under
    ``name{tag=value,...}``; histograms contribute ``.count`` and ``.sum``
    sub-keys (distributions are not directly comparable).
    """
    flat: dict[str, float] = {}
    for inst in collected:
        key = _flatten_key(inst["name"], inst.get("tags", {}))
        if inst.get("kind") == "histogram":
            flat[f"{key}.count"] = float(inst.get("count", 0))
            flat[f"{key}.sum"] = float(inst.get("sum", 0.0))
        elif inst.get("value") is not None:
            try:
                flat[key] = float(inst["value"])
            except (TypeError, ValueError):
                continue
    return flat


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricDelta:
    """One metric's comparison row."""

    name: str
    base: float | None
    other: float | None
    rel_tol: float
    abs_tol: float

    @property
    def delta(self) -> float | None:
        """Signed absolute change ``other − base`` (``None`` if undefined)."""
        if self.base is None or self.other is None:
            return None
        return self.other - self.base

    @property
    def ok(self) -> bool:
        """Whether the change is within the applied tolerance."""
        if self.base is None or self.other is None:
            return False
        return abs(self.other - self.base) <= self.abs_tol + self.rel_tol * abs(self.base)

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "base": self.base,
            "other": self.other,
            "delta": self.delta,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "ok": self.ok,
        }


@dataclass
class ReportComparison:
    """Outcome of :meth:`RunReport.compare`: per-metric deltas and a verdict."""

    base_label: str
    other_label: str
    deltas: list[MetricDelta] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True iff every compared metric stayed within tolerance."""
        return all(d.ok for d in self.deltas)

    def regressions(self) -> list[MetricDelta]:
        """The rows that failed (out of tolerance or missing)."""
        return [d for d in self.deltas if not d.ok]

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "base": self.base_label,
            "other": self.other_label,
            "passed": self.passed,
            "deltas": [d.to_dict() for d in self.deltas],
        }

    def render(self, *, only_failures: bool = False) -> str:
        """Human-readable text rendering."""
        rows = []
        for d in self.deltas:
            if only_failures and d.ok:
                continue
            rows.append(
                [
                    d.name,
                    "-" if d.base is None else f"{d.base:g}",
                    "-" if d.other is None else f"{d.other:g}",
                    "-" if d.delta is None else f"{d.delta:+g}",
                    f"{d.rel_tol:g}",
                    f"{d.abs_tol:g}",
                    "ok" if d.ok else "FAIL",
                ]
            )
        verdict = "PASS" if self.passed else (
            f"FAIL ({len(self.regressions())} regression(s))"
        )
        title = f"report comparison: {self.base_label} vs {self.other_label} — {verdict}"
        if not rows:
            if self.deltas:
                return title + f"\n({len(self.deltas)} metric(s) within tolerance)"
            return title + "\n(no metrics compared)"
        header = ["metric", "base", "other", "delta", "rel_tol", "abs_tol", "status"]
        return format_table(header, rows, title=title)

    def __repr__(self) -> str:
        return (
            f"ReportComparison({self.base_label!r} vs {self.other_label!r}, "
            f"passed={self.passed})"
        )


# ----------------------------------------------------------------------
@dataclass
class RunReport:
    """One run's observable facts, saved as a versioned JSON document."""

    meta: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Display label of this report."""
        return str(self.meta.get("label", "run"))

    # construction ------------------------------------------------------
    @classmethod
    def from_run(
        cls,
        tracer=None,
        metrics=None,
        *,
        label: str = "run",
        solver: str | None = None,
        **meta,
    ) -> "RunReport":
        """Build from a live tracer / metrics registry pair.

        Adds a ``flight`` section when the tracer recorded flight events, a
        ``timers`` section with total seconds per span name, and flattens the
        metrics registry into the comparable surface.
        """
        report = cls(meta={"label": label, **meta})
        if tracer is not None and getattr(tracer, "enabled", False):
            record = FlightRecord.from_tracer(tracer, solver=solver)
            if record.iterations:
                report.sections["flight"] = record.summary()
            timers: dict[str, float] = {}
            for span in tracer.spans:
                if span.end is not None and span.end > span.start:
                    timers[span.name] = timers.get(span.name, 0.0) + (span.end - span.start)
            if timers:
                report.sections["timers"] = {
                    k: timers[k] for k in sorted(timers)
                }
        if metrics is not None and getattr(metrics, "enabled", False):
            report.metrics = flatten_metrics(metrics.collect())
        return report

    @classmethod
    def from_trace_doc(cls, doc: dict, *, label: str = "trace") -> "RunReport":
        """Build from an exported ``repro-trace`` document (see
        :func:`repro.instrument.read_json_trace`)."""
        if doc.get("format") != "repro-trace":
            raise ReportError("not a repro-trace document")
        record = FlightRecord.from_spans(doc.get("spans", []))
        report = cls(meta={"label": label, "source": "trace"})
        if record.iterations:
            report.sections["flight"] = record.summary()
        report.metrics = flatten_metrics(doc.get("metrics", []))
        return report

    @classmethod
    def from_bench(cls, doc: dict, *, label: str = "bench") -> "RunReport":
        """Build from a benchmark suite document (``BENCH_<suite>.json``).

        Every suite document has ``suite``, ``config``, ``summary`` and one
        section named after the suite.  The section is kept as is; every
        numeric summary key becomes the metric ``<suite>.<key>``.
        """
        suite = doc.get("suite") if isinstance(doc, dict) else None
        if not (isinstance(suite, str) and isinstance(doc.get("summary"), dict)
                and isinstance(doc.get(suite), dict)):
            raise ReportError(
                "not a benchmark suite document (needs 'suite', 'summary' "
                "and a section named after the suite)"
            )
        report = cls(meta={"label": label, "suite": suite,
                           "config": doc.get("config", {})})
        report.sections[suite] = dict(doc[suite])
        for key, value in doc["summary"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                report.metrics[f"{suite}.{key}"] = float(value)
        return report

    @classmethod
    def from_dict(cls, doc: dict) -> "RunReport":
        """Validate and load the saved document form."""
        if not isinstance(doc, dict):
            raise ReportError("run report must be a JSON object")
        fmt = doc.get("format")
        if fmt != REPORT_FORMAT:
            raise ReportError(
                f"not a run report (format={fmt!r}, expected {REPORT_FORMAT!r})"
            )
        version = doc.get("version")
        if version != REPORT_VERSION:
            raise ReportError(
                f"unsupported run-report schema version {version!r} "
                f"(this build reads version {REPORT_VERSION})"
            )
        for key, want in (("meta", dict), ("sections", dict), ("metrics", dict)):
            if not isinstance(doc.get(key, want()), want):
                raise ReportError(f"run report field {key!r} must be an object")
        return cls(
            meta=dict(doc.get("meta", {})),
            sections=dict(doc.get("sections", {})),
            metrics={k: v for k, v in doc.get("metrics", {}).items()},
        )

    @classmethod
    def load(cls, path) -> "RunReport":
        """Load a report — or anything convertible to one — from ``path``.

        Dispatches on the file's declared format: native run reports,
        exported ``repro-trace`` documents, and benchmark suite JSON all
        work.  Raises :class:`ReportError` with a clear message otherwise.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ReportError(f"cannot read {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReportError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ReportError(f"{path}: expected a JSON object at top level")
        fmt = doc.get("format")
        try:
            if fmt == REPORT_FORMAT:
                return cls.from_dict(doc)
            if "suite" in doc:
                return cls.from_bench(doc, label=path.stem)
        except ReportError as exc:
            raise ReportError(f"{path}: {exc}") from None
        if fmt == "repro-trace":
            try:
                doc = read_json_trace(path)
            except TraceError as exc:  # its message names the path
                raise ReportError(str(exc)) from None
            return cls.from_trace_doc(doc, label=path.stem)
        if fmt == "repro-chaos-report":
            raise ReportError(
                f"{path} is a chaos survival report — inspect it with "
                "'repro chaos' / repro.resilience.ChaosReport.load, not "
                "'repro report'"
            )
        raise ReportError(
            f"{path}: unrecognised document (format={fmt!r}); expected a "
            f"{REPORT_FORMAT!r} report, a 'repro-trace' export, or a "
            "benchmark suite JSON"
        )

    # mutation ----------------------------------------------------------
    def add_section(self, name: str, payload) -> None:
        """Attach an observe object (anything with ``to_dict``/``summary``)
        or a plain dictionary as a named section."""
        if hasattr(payload, "to_dict"):
            payload = payload.to_dict()
        elif hasattr(payload, "summary"):
            payload = payload.summary()
        if not isinstance(payload, dict):
            raise TypeError(f"section {name!r} must be dict-like, got {type(payload)}")
        self.sections[name] = payload

    def add_metric(self, name: str, value) -> None:
        """Add one flat comparable metric."""
        self.metrics[name] = float(value)

    def attach_timeline(self, timeline) -> None:
        """Attach a :class:`~repro.observe.timeline.Timeline` (v2 section).

        Stores the aggregate summary under ``sections["timeline"]`` and the
        headline numbers as comparable ``timeline.*`` metrics.
        """
        summary = timeline.summary()
        self.sections["timeline"] = summary
        self.metrics["timeline.makespan_seconds"] = float(summary["makespan_seconds"])
        self.metrics["timeline.total_busy_seconds"] = float(
            summary["total_busy_seconds"]
        )
        self.metrics["timeline.max_wait_seconds"] = float(summary["max_wait_seconds"])
        self.metrics["timeline.critical_path_seconds"] = float(
            summary["critical_path"]["length_seconds"]
        )

    def attach_attribution(self, verdict) -> None:
        """Attach an :class:`~repro.observe.explain.AttributionVerdict`
        (v2 section) plus per-method iteration metrics."""
        doc = verdict.to_dict()
        self.sections["attribution"] = {
            "headline": doc["headline"],
            "baseline": doc["baseline"],
            "facts": doc["facts"],
            "suspects": doc["suspects"],
        }
        for f in verdict.facts:
            key = f.method.lower().replace(" ", "-")
            self.metrics[f"attribution.{key}.iterations"] = float(f.iterations)
        self.metrics["attribution.suspects"] = float(len(verdict.suspects))

    # persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "meta": dict(self.meta),
            "sections": dict(self.sections),
            "metrics": dict(self.metrics),
        }

    def save(self, path, *, indent: int | None = 2) -> Path:
        """Write the versioned JSON document; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n")
        return path

    # comparison --------------------------------------------------------
    def compare(
        self,
        other: "RunReport",
        tolerances: dict[str, float] | None = None,
        *,
        default_rel: float = 0.0,
        default_abs: float = 0.0,
        metrics: list[str] | None = None,
    ) -> ReportComparison:
        """Diff ``other`` against this report's flat metrics.

        ``self`` is the baseline: every baseline metric must be present in
        ``other`` and within tolerance (metrics only ``other`` has are
        ignored — new instrumentation is not a regression).  ``tolerances``
        maps metric names to a relative tolerance (float) or to
        ``{"rel": x, "abs": y}``; a name matches the exact flat key first,
        then the key with its ``{tags}`` suffix stripped.  ``metrics``
        restricts the comparison to the listed baseline keys.
        """
        tolerances = tolerances or {}

        def tol_for(key: str) -> tuple[float, float]:
            bare = key.split("{", 1)[0]
            spec = tolerances.get(key, tolerances.get(bare))
            if spec is None:
                return default_rel, default_abs
            if isinstance(spec, dict):
                return float(spec.get("rel", 0.0)), float(spec.get("abs", 0.0))
            return float(spec), 0.0

        names = metrics if metrics is not None else sorted(self.metrics)
        deltas = []
        for name in names:
            if name not in self.metrics:
                raise KeyError(f"baseline report has no metric {name!r}")
            rel, abs_ = tol_for(name)
            deltas.append(
                MetricDelta(
                    name=name,
                    base=float(self.metrics[name]),
                    other=(
                        float(other.metrics[name]) if name in other.metrics else None
                    ),
                    rel_tol=rel,
                    abs_tol=abs_,
                )
            )
        return ReportComparison(
            base_label=self.label, other_label=other.label, deltas=deltas
        )

    # rendering ---------------------------------------------------------
    def _section_lines(self, render_kv) -> list[str]:
        lines: list[str] = []
        for name in sorted(self.sections):
            body = self.sections[name]
            scalars = {
                k: v
                for k, v in body.items()
                if isinstance(v, (str, int, float, bool)) or v is None
            }
            nested = {k: v for k, v in body.items() if k not in scalars}
            lines.append(render_kv(name, scalars, nested))
        return lines

    def to_text(self) -> str:
        """Aligned plain-text rendering (the ``repro report`` default)."""
        blocks = [f"run report: {self.label}"]
        meta = {k: v for k, v in self.meta.items() if k != "label"}
        if meta:
            blocks.append(format_kv({k: meta[k] for k in sorted(meta)}, title="[meta]"))

        def render_kv(name, scalars, nested):
            parts = []
            if scalars:
                parts.append(format_kv(scalars, title=f"[{name}]"))
            else:
                parts.append(f"[{name}]")
            for key in sorted(nested):
                parts.append(f"{key} : {json.dumps(nested[key], sort_keys=True)}")
            return "\n".join(parts)

        blocks.extend(self._section_lines(render_kv))
        if self.metrics:
            rows = [
                [name, f"{value:g}"] for name, value in sorted(self.metrics.items())
            ]
            blocks.append(format_table(["metric", "value"], rows, title="[metrics]"))
        return "\n\n".join(blocks) + "\n"

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering."""
        blocks = [f"# Run report — {self.label}"]
        meta = {k: v for k, v in self.meta.items() if k != "label"}
        if meta:
            rows = "\n".join(f"| {k} | {meta[k]} |" for k in sorted(meta))
            blocks.append(f"| key | value |\n| --- | --- |\n{rows}")

        def render_kv(name, scalars, nested):
            parts = [f"## {name}"]
            if scalars:
                rows = "\n".join(f"| {k} | {scalars[k]} |" for k in sorted(scalars))
                parts.append(f"| key | value |\n| --- | --- |\n{rows}")
            for key in sorted(nested):
                parts.append(
                    f"<details><summary>{key}</summary>\n\n```json\n"
                    + json.dumps(nested[key], indent=2, sort_keys=True)
                    + "\n```\n\n</details>"
                )
            return "\n\n".join(parts)

        blocks.extend(self._section_lines(render_kv))
        if self.metrics:
            rows = "\n".join(
                f"| `{name}` | {value:g} |" for name, value in sorted(self.metrics.items())
            )
            blocks.append(f"## metrics\n\n| metric | value |\n| --- | --- |\n{rows}")
        return "\n\n".join(blocks) + "\n"

    def __repr__(self) -> str:
        return (
            f"RunReport(label={self.label!r}, sections={sorted(self.sections)}, "
            f"metrics={len(self.metrics)})"
        )
