"""α–β model-conformance verdicts: predicted vs measured, per rank count.

The repo's :class:`repro.perfmodel.CostModel` *predicts* per-iteration
phase costs (SpMV, preconditioner, halo, reductions); the streaming
telemetry of :mod:`repro.observe.stream` *measures* the same phases on the
simulated wire at production rank counts.  This module confronts the two
across a strong-scaled ladder and renders the confrontation as a versioned
:class:`ConformanceReport`:

* per-phase **predicted-vs-measured ratios** at each rank count of the
  ladder (compute / halo / reduction);
* **straggler-rank detection** via robust z-scores over the streamed
  per-rank wait histogram (median and percentile-estimated MAD — O(bucket)
  statistics, never an O(P) vector);
* **named divergence verdicts** — ``halo-underpredicted``,
  ``reduction-overpredicted``, ``straggler-ranks``, ... — that plug
  straight into :func:`repro.observe.explain.attribute`'s suspect list via
  :meth:`ConformanceReport.to_suspects`.

What the ratios mean: "measured" seconds are the *simulated schedule* of
the run — modeled waits, reductions and charged kernels on the engine's
α–β clock (:class:`repro.mpisim.ClockModel`, fed the same machine numbers
the model predicts with) — and "predicted" seconds are the model's
closed-form bound.  Both are deterministic functions of the inputs, so the
ratios are O(1), reproducible to the last digit, and gated in an absolute
band by ``scripts/check_bench.py conformance`` next to the structural facts
— schedule invariance with telemetry enabled, telemetry excluded from the
audit, artifact sublinearity.

The module is duck-typed over cost objects (anything with ``spmv_a`` /
``precond`` / ``halo`` / ``reductions`` / ``vector_ops`` attributes — e.g.
:class:`repro.perfmodel.model.IterationCost`) so observe keeps its layering
below :mod:`repro.perfmodel`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.observe.explain import Suspect

__all__ = [
    "CONFORMANCE_FORMAT",
    "CONFORMANCE_VERSION",
    "ConformanceError",
    "PHASES",
    "predicted_phases",
    "PhaseConformance",
    "RankCountConformance",
    "ConformanceReport",
    "conformance_samples",
]

CONFORMANCE_FORMAT = "repro-conformance"
CONFORMANCE_VERSION = 1

#: The measured/predicted phase taxonomy.  ``compute`` folds the model's
#: SpMV-A, preconditioner-apply and vector-op terms (they are one fused
#: stretch of rank-local work on the wire); ``halo`` is blocked halo-wait
#: time; ``reduction`` is allreduce time.
PHASES = ("compute", "halo", "reduction")


class ConformanceError(ReproError):
    """Malformed conformance document or inconsistent entry data."""


def predicted_phases(cost, iterations: int) -> dict[str, float]:
    """Fold a per-iteration cost object into per-phase predicted seconds.

    ``cost`` is duck-typed over the α–β model's per-iteration breakdown
    (``spmv_a`` + ``precond`` + ``vector_ops`` → compute, ``halo`` → halo,
    ``reductions`` → reduction), scaled by the iteration count — the same
    folding :meth:`repro.perfmodel.CostModel.phase_seconds` applies.
    """
    k = float(iterations)
    return {
        "compute": (float(cost.spmv_a) + float(cost.precond)
                    + float(cost.vector_ops)) * k,
        "halo": float(cost.halo) * k,
        "reduction": float(cost.reductions) * k,
    }


@dataclass
class PhaseConformance:
    """One phase's predicted-vs-measured confrontation at one rank count."""

    phase: str
    predicted_seconds: float
    measured_seconds: float

    @property
    def ratio(self) -> float:
        """measured / predicted (``inf`` when the model predicted zero for
        a phase that measurably happened; ``1.0`` when both are zero)."""
        if self.predicted_seconds > 0:
            return self.measured_seconds / self.predicted_seconds
        return float("inf") if self.measured_seconds > 0 else 1.0

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "phase": self.phase,
            "predicted_seconds": float(self.predicted_seconds),
            "measured_seconds": float(self.measured_seconds),
            "ratio": float(self.ratio),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PhaseConformance":
        return cls(
            phase=str(d["phase"]),
            predicted_seconds=float(d["predicted_seconds"]),
            measured_seconds=float(d["measured_seconds"]),
        )


@dataclass
class RankCountConformance:
    """Model conformance at one rung of the strong-scaled ladder."""

    ranks: int
    iterations: int
    phases: list = field(default_factory=list)
    stragglers: list = field(default_factory=list)
    telemetry_payload_bytes: int = 0
    sampled_ranks: int = 0
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_cluster(
        cls,
        *,
        ranks: int,
        iterations: int,
        predicted: dict,
        cluster,
        z_threshold: float = 3.5,
        extras: dict | None = None,
    ) -> "RankCountConformance":
        """Build one rung from the model's predicted per-phase seconds and
        an aggregated :class:`repro.observe.stream.ClusterTelemetry`.

        The model predicts *per-rank* seconds; the cluster histograms hold
        cluster-total seconds, so measured-per-rank is the cluster sum over
        the rank count.  Stragglers come from the cluster's robust z-score
        detector over the streamed per-rank wait distribution.
        """
        totals = cluster.phase_seconds()
        nranks = max(int(ranks), 1)
        phases = [
            PhaseConformance(
                phase=name,
                predicted_seconds=float(predicted.get(name, 0.0)),
                measured_seconds=float(totals.get(name, 0.0)) / nranks,
            )
            for name in PHASES
        ]
        return cls(
            ranks=int(ranks),
            iterations=int(iterations),
            phases=phases,
            stragglers=cluster.straggler_ranks(z_threshold=z_threshold),
            telemetry_payload_bytes=int(cluster.payload_bytes()),
            sampled_ranks=len(cluster.sampled),
            extras=dict(extras or {}),
        )

    def phase(self, name: str) -> PhaseConformance | None:
        """The named phase entry, or None."""
        for p in self.phases:
            if p.phase == name:
                return p
        return None

    def ratios(self) -> dict[str, float]:
        """Phase name → measured/predicted ratio."""
        return {p.phase: p.ratio for p in self.phases}

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "ranks": self.ranks,
            "iterations": self.iterations,
            "phases": [p.to_dict() for p in self.phases],
            "stragglers": list(self.stragglers),
            "telemetry_payload_bytes": self.telemetry_payload_bytes,
            "sampled_ranks": self.sampled_ranks,
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RankCountConformance":
        return cls(
            ranks=int(d["ranks"]),
            iterations=int(d.get("iterations", 0)),
            phases=[PhaseConformance.from_dict(p) for p in d.get("phases", [])],
            stragglers=list(d.get("stragglers", [])),
            telemetry_payload_bytes=int(d.get("telemetry_payload_bytes", 0)),
            sampled_ranks=int(d.get("sampled_ranks", 0)),
            extras=dict(d.get("extras", {})),
        )


@dataclass
class ConformanceReport:
    """Versioned model-conformance document over a rank-count ladder.

    ``verdicts`` names the divergences; each verdict is a plain dict with
    ``name`` / ``ranks`` / ``detail`` keys so it serialises cleanly, and
    :meth:`to_suspects` lifts them into :class:`repro.observe.explain`
    suspects (method ``rP``, name ``conformance:<verdict>``) for
    :func:`repro.observe.explain.attribute`.
    """

    entries: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    #: A phase whose measured *share* of total time differs from its
    #: predicted share by more than this is named a divergence verdict.
    #: Shares — not raw ratios — because a phase *mix* that disagrees is
    #: what indicts the model, whatever the overall scale.
    share_tolerance: float = 0.25

    def verdicts(self) -> list[dict]:
        """Named divergence verdicts over every rung of the ladder."""
        out: list[dict] = []
        for entry in self.entries:
            predicted_total = sum(p.predicted_seconds for p in entry.phases)
            measured_total = sum(p.measured_seconds for p in entry.phases)
            for p in entry.phases:
                if predicted_total <= 0 or measured_total <= 0:
                    continue
                predicted_share = p.predicted_seconds / predicted_total
                measured_share = p.measured_seconds / measured_total
                drift = measured_share - predicted_share
                if drift > self.share_tolerance:
                    out.append({
                        "name": f"{p.phase}-underpredicted",
                        "ranks": entry.ranks,
                        "detail": (
                            f"{p.phase} is {measured_share:.0%} of measured "
                            f"time but only {predicted_share:.0%} of the "
                            f"model's prediction at {entry.ranks} ranks "
                            f"(ratio {p.ratio:.3g})"
                        ),
                    })
                elif drift < -self.share_tolerance:
                    out.append({
                        "name": f"{p.phase}-overpredicted",
                        "ranks": entry.ranks,
                        "detail": (
                            f"the model puts {predicted_share:.0%} of time "
                            f"in {p.phase} but only {measured_share:.0%} was "
                            f"measured at {entry.ranks} ranks "
                            f"(ratio {p.ratio:.3g})"
                        ),
                    })
            if entry.stragglers:
                worst = entry.stragglers[0]
                out.append({
                    "name": "straggler-ranks",
                    "ranks": entry.ranks,
                    "detail": (
                        f"{len(entry.stragglers)} rank(s) with robust "
                        f"z >= 3.5 at {entry.ranks} ranks; worst is rank "
                        f"{worst['rank']} at {worst['wait_seconds'] * 1e3:.2f} ms "
                        f"halo wait (z={worst['z']:.1f})"
                    ),
                })
            for flag in ("halo_invariant", "telemetry_excluded"):
                if flag in entry.extras and not entry.extras[flag]:
                    out.append({
                        "name": f"{flag.replace('_', '-')}-violated",
                        "ranks": entry.ranks,
                        "detail": (
                            f"structural fact {flag!r} failed at "
                            f"{entry.ranks} ranks"
                        ),
                    })
        return out

    def to_suspects(self) -> list[Suspect]:
        """The divergence verdicts as explainer suspects."""
        return [
            Suspect(
                name=f"conformance:{v['name']}",
                method=f"r{v['ranks']}",
                detail=v["detail"],
            )
            for v in self.verdicts()
        ]

    # rendering ---------------------------------------------------------
    def render(self) -> str:
        """Human-readable conformance table plus verdicts."""
        lines = ["model conformance (measured / predicted per phase)"]
        if self.meta.get("matrix"):
            lines[0] += f" — {self.meta['matrix']}"
        lines.append("")
        header = (
            f"{'ranks':>6} {'iters':>6}"
            + "".join(f" {p + ' x':>12}" for p in PHASES)
            + f" {'stragglers':>11} {'payload':>9} {'sampled':>8}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for entry in sorted(self.entries, key=lambda e: e.ranks):
            ratios = entry.ratios()
            lines.append(
                f"{entry.ranks:>6} {entry.iterations:>6}"
                + "".join(f" {ratios[p]:>12.3g}" for p in PHASES)
                + f" {len(entry.stragglers):>11}"
                + f" {entry.telemetry_payload_bytes / 1024:>8.1f}K"
                + f" {entry.sampled_ranks:>8}"
            )
        verdicts = self.verdicts()
        lines.append("")
        if verdicts:
            lines.append(f"verdicts ({len(verdicts)}):")
            for v in verdicts:
                lines.append(f"  - [{v['name']}] {v['detail']}")
        else:
            lines.append("verdicts: none — phase mix within the share band")
        return "\n".join(lines)

    # persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """Versioned JSON-serialisable document."""
        return {
            "format": CONFORMANCE_FORMAT,
            "version": CONFORMANCE_VERSION,
            "meta": dict(self.meta),
            "share_tolerance": self.share_tolerance,
            "entries": [e.to_dict() for e in self.entries],
            "verdicts": self.verdicts(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConformanceReport":
        if d.get("format") != CONFORMANCE_FORMAT:
            raise ConformanceError(
                f"not a conformance document (format={d.get('format')!r})"
            )
        if int(d.get("version", 0)) > CONFORMANCE_VERSION:
            raise ConformanceError(
                f"conformance document version {d.get('version')} is newer "
                f"than supported ({CONFORMANCE_VERSION})"
            )
        return cls(
            entries=[RankCountConformance.from_dict(e)
                     for e in d.get("entries", [])],
            meta=dict(d.get("meta", {})),
            share_tolerance=float(d.get("share_tolerance", 0.25)),
        )

    def save(self, path) -> Path:
        """Write the versioned document."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "ConformanceReport":
        """Read a document written by :meth:`save`."""
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConformanceError(f"cannot read conformance report: {exc}") from exc
        return cls.from_dict(doc)


def conformance_samples(report: ConformanceReport, *, prefix: str = "conformance") -> list[dict]:
    """The report as ``collect()``-style instruments for OpenMetrics export
    (:func:`repro.observe.prom.render_openmetrics`)."""
    samples: list[dict] = []
    for entry in sorted(report.entries, key=lambda e: e.ranks):
        tags = {"ranks": entry.ranks}
        samples.append({"kind": "gauge", "name": f"{prefix}.iterations",
                        "tags": tags, "value": entry.iterations})
        for p in entry.phases:
            ptags = {"ranks": entry.ranks, "phase": p.phase}
            samples.append({"kind": "gauge", "name": f"{prefix}.predicted_seconds",
                            "tags": ptags, "value": p.predicted_seconds})
            samples.append({"kind": "gauge", "name": f"{prefix}.measured_seconds",
                            "tags": ptags, "value": p.measured_seconds})
            samples.append({"kind": "gauge", "name": f"{prefix}.ratio",
                            "tags": ptags, "value": p.ratio})
        samples.append({"kind": "gauge", "name": f"{prefix}.stragglers",
                        "tags": tags, "value": len(entry.stragglers)})
        samples.append({"kind": "gauge", "name": f"{prefix}.payload_bytes",
                        "tags": tags, "value": entry.telemetry_payload_bytes})
    samples.append({"kind": "gauge", "name": f"{prefix}.verdicts", "tags": {},
                    "value": len(report.verdicts())})
    return samples
