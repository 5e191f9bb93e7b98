"""Performance attribution: explain *why* a solve behaved the way it did.

The paper's argument is a tradeoff: FSAIE buys iteration reductions with
extra nonzeros; FSAIE-Comm restricts the extras to already-touched cache
lines on already-owned ranks so the extra nonzeros are (nearly) free; and
dynamic filtering keeps the per-rank extension balanced.  This module turns
one solve per pattern into a versioned *attribution verdict* that checks
each link of that argument against the run's own numbers:

* achieved iteration count and modeled time vs the :mod:`repro.perfmodel`
  prediction, with the dominant modeled component named when they diverge;
* extra-nnz vs iteration-reduction tradeoff per pattern, relative to the
  FSAI baseline;
* cache-line reuse (``cachesim`` misses) — extension entries should not
  add misses in proportion to their nonzeros;
* named "suspects" (:class:`Suspect`) whenever a fact contradicts the
  expectation: load imbalance, ineffective extension, model divergence,
  invariance violation, non-convergence.

Layering: everything here is duck-typed over plain numbers and
already-built objects (``MethodFacts.from_objects`` reads attributes, never
types) — this module must not import :mod:`repro.core`.  Orchestration
(building preconditioners, running solves) lives in the CLI and benchmark
layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError

__all__ = [
    "EXPLAIN_FORMAT",
    "EXPLAIN_VERSION",
    "ExplainError",
    "MethodFacts",
    "Suspect",
    "AttributionVerdict",
    "attribute",
]

#: Schema identifier and version stamped into saved verdicts.
EXPLAIN_FORMAT = "repro-attribution"
EXPLAIN_VERSION = 1


class ExplainError(ReproError):
    """An attribution document is malformed or from a newer schema."""


@dataclass
class MethodFacts:
    """The observable facts of one (pattern, solve) pair.

    All fields are plain numbers/flags so facts can be built from live
    objects (:meth:`from_objects`), loaded documents, or tests without
    touching solver code.
    """

    method: str
    iterations: int
    converged: bool = True
    nnz: int = 0
    base_nnz: int = 0
    nnz_per_rank: list[int] = field(default_factory=list)
    modeled_seconds: float | None = None
    modeled_breakdown: dict = field(default_factory=dict)
    measured_seconds: float | None = None
    misses_total: float | None = None
    invariant: bool | None = None

    @classmethod
    def from_objects(
        cls,
        precond,
        result,
        *,
        cost=None,
        misses=None,
        measured_seconds: float | None = None,
        invariant: bool | None = None,
    ) -> "MethodFacts":
        """Duck-typed builder: ``precond`` needs ``name`` / ``nnz`` /
        ``base_nnz`` / ``nnz_per_rank()``; ``result`` needs ``iterations`` /
        ``converged``; ``cost`` is a per-iteration cost object (attributes
        become the modeled breakdown); ``misses`` is per-rank cache misses.
        """
        iterations = int(getattr(result, "iterations", result))
        breakdown: dict = {}
        modeled = None
        if cost is not None:
            for name in ("spmv_a", "precond", "misses", "halo", "reductions",
                         "vector_ops"):
                value = getattr(cost, name, None)
                if value is not None:
                    breakdown[name] = float(value)
            total = getattr(cost, "total", None)
            if total is not None:
                modeled = iterations * float(total)
        return cls(
            method=str(getattr(precond, "name", precond)),
            iterations=iterations,
            converged=bool(getattr(result, "converged", True)),
            nnz=int(getattr(precond, "nnz", 0)),
            base_nnz=int(getattr(precond, "base_nnz", 0)),
            nnz_per_rank=[int(v) for v in precond.nnz_per_rank()]
            if hasattr(precond, "nnz_per_rank")
            else [],
            modeled_seconds=modeled,
            modeled_breakdown=breakdown,
            measured_seconds=measured_seconds,
            misses_total=float(sum(misses)) if misses is not None else None,
            invariant=invariant,
        )

    @property
    def extra_nnz_percent(self) -> float:
        """Pattern growth over the FSAI baseline, in percent."""
        if not self.base_nnz:
            return 0.0
        return 100.0 * (self.nnz - self.base_nnz) / self.base_nnz

    @property
    def imbalance(self) -> float:
        """max/mean of the per-rank nonzeros (1.0 = perfectly balanced)."""
        if not self.nnz_per_rank:
            return 1.0
        mean = sum(self.nnz_per_rank) / len(self.nnz_per_rank)
        return max(self.nnz_per_rank) / mean if mean else 1.0

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
            "nnz": self.nnz,
            "base_nnz": self.base_nnz,
            "nnz_per_rank": list(self.nnz_per_rank),
            "extra_nnz_percent": self.extra_nnz_percent,
            "imbalance": self.imbalance,
            "modeled_seconds": self.modeled_seconds,
            "modeled_breakdown": dict(self.modeled_breakdown),
            "measured_seconds": self.measured_seconds,
            "misses_total": self.misses_total,
            "invariant": self.invariant,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MethodFacts":
        return cls(
            method=d["method"],
            iterations=int(d["iterations"]),
            converged=bool(d.get("converged", True)),
            nnz=int(d.get("nnz", 0)),
            base_nnz=int(d.get("base_nnz", 0)),
            nnz_per_rank=[int(v) for v in d.get("nnz_per_rank", [])],
            modeled_seconds=d.get("modeled_seconds"),
            modeled_breakdown=dict(d.get("modeled_breakdown", {})),
            measured_seconds=d.get("measured_seconds"),
            misses_total=d.get("misses_total"),
            invariant=d.get("invariant"),
        )


@dataclass(frozen=True)
class Suspect:
    """One named cause for a divergence between expected and achieved."""

    name: str
    method: str
    detail: str

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {"name": self.name, "method": self.method, "detail": self.detail}


@dataclass
class AttributionVerdict:
    """The versioned per-solve attribution document."""

    facts: list[MethodFacts] = field(default_factory=list)
    suspects: list[Suspect] = field(default_factory=list)
    baseline: str = "FSAI"
    meta: dict = field(default_factory=dict)

    def facts_for(self, method: str) -> MethodFacts | None:
        """Facts of one method by name (``None`` when absent)."""
        for f in self.facts:
            if f.method == method:
                return f
        return None

    def iteration_reduction_percent(self, method: str) -> float | None:
        """Iterations saved vs the baseline pattern, as a percentage."""
        base = self.facts_for(self.baseline)
        other = self.facts_for(method)
        if base is None or other is None or not base.iterations:
            return None
        return 100.0 * (base.iterations - other.iterations) / base.iterations

    @property
    def headline(self) -> str:
        """One-line summary of the verdict."""
        parts = []
        for f in self.facts:
            if f.method == self.baseline:
                parts.append(f"{f.method}: {f.iterations} iterations (baseline)")
                continue
            red = self.iteration_reduction_percent(f.method)
            if red is None:
                parts.append(f"{f.method}: {f.iterations} iterations")
            else:
                parts.append(
                    f"{f.method}: {f.iterations} iterations "
                    f"({red:+.1f}% vs {self.baseline}, "
                    f"+{f.extra_nnz_percent:.1f}% nnz)"
                )
        verdict = "clean" if not self.suspects else (
            ", ".join(sorted({s.name for s in self.suspects}))
        )
        return "; ".join(parts) + f" — suspects: {verdict}"

    # persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "format": EXPLAIN_FORMAT,
            "version": EXPLAIN_VERSION,
            "meta": dict(self.meta),
            "baseline": self.baseline,
            "headline": self.headline,
            "facts": [f.to_dict() for f in self.facts],
            "suspects": [s.to_dict() for s in self.suspects],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AttributionVerdict":
        if not isinstance(doc, dict):
            raise ExplainError("attribution document must be a JSON object")
        if doc.get("format") != EXPLAIN_FORMAT:
            raise ExplainError(
                f"not an attribution document (format={doc.get('format')!r})"
            )
        if doc.get("version") != EXPLAIN_VERSION:
            raise ExplainError(
                f"unsupported attribution schema version {doc.get('version')!r} "
                f"(this build reads version {EXPLAIN_VERSION})"
            )
        return cls(
            facts=[MethodFacts.from_dict(d) for d in doc.get("facts", [])],
            suspects=[
                Suspect(d["name"], d.get("method", "?"), d.get("detail", ""))
                for d in doc.get("suspects", [])
            ],
            baseline=doc.get("baseline", "FSAI"),
            meta=dict(doc.get("meta", {})),
        )

    def save(self, path, *, indent: int | None = 2) -> Path:
        """Write as JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=indent) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "AttributionVerdict":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise ExplainError(f"cannot read {path}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ExplainError(f"{path} is not valid JSON: {exc}") from exc
        try:
            return cls.from_dict(doc)
        except ExplainError as exc:
            raise ExplainError(f"{path}: {exc}") from None

    # rendering ---------------------------------------------------------
    def render(self) -> str:
        """Human-readable text rendering."""
        lines = [f"attribution verdict — {self.headline}", ""]
        for f in self.facts:
            lines.append(f"[{f.method}]")
            lines.append(
                f"  iterations        : {f.iterations} (converged={f.converged})"
            )
            if f.base_nnz:
                lines.append(
                    f"  pattern           : {f.nnz} nnz "
                    f"(+{f.extra_nnz_percent:.1f}% vs FSAI), "
                    f"imbalance {f.imbalance:.3f}"
                )
            if f.modeled_seconds is not None:
                lines.append(f"  modeled time      : {f.modeled_seconds * 1e3:.3f} ms")
            if f.modeled_breakdown:
                dominant = max(f.modeled_breakdown, key=f.modeled_breakdown.get)
                lines.append(
                    f"  dominant component: {dominant} "
                    f"({f.modeled_breakdown[dominant] * 1e6:.2f} us/iteration)"
                )
            if f.measured_seconds is not None:
                lines.append(f"  measured time     : {f.measured_seconds * 1e3:.3f} ms")
            if f.misses_total is not None:
                lines.append(f"  precond misses    : {f.misses_total:.0f} cache lines")
            if f.invariant is not None:
                lines.append(f"  comm invariant    : {f.invariant}")
        if self.suspects:
            lines.append("")
            lines.append("suspects:")
            for s in self.suspects:
                lines.append(f"  - {s.name} [{s.method}]: {s.detail}")
        else:
            lines.append("")
            lines.append("suspects: none — achieved behaviour matches the model")
        return "\n".join(lines)


def attribute(
    facts: list[MethodFacts],
    *,
    baseline: str = "FSAI",
    meta: dict | None = None,
    model_tolerance: float = 0.5,
    imbalance_band: float = 0.05,
    conformance=None,
    ledgers=None,
) -> AttributionVerdict:
    """Judge a set of per-method facts and name suspects for divergences.

    Rules (each suspect names the method and the evidence):

    * ``no-convergence`` — the solve did not converge;
    * ``model-divergence`` — measured time off the perfmodel prediction by
      more than ``model_tolerance`` (relative), naming the dominant modeled
      component as the likely misattribution;
    * ``load-imbalance`` — per-rank nonzeros outside the ±``imbalance_band``
      Alg. 4 band (max/mean above ``1 + band``);
    * ``ineffective-extension`` — a pattern added nonzeros over the baseline
      without reducing iterations;
    * ``cache-reuse-not-realized`` — an extended pattern incurs
      substantially more preconditioner misses than the baseline (extension
      entries were supposed to ride already-touched lines);
    * ``comm-invariance-violated`` — the audited halo schedule differs from
      the baseline's.

    ``conformance`` optionally takes a
    :class:`repro.observe.conformance.ConformanceReport` (duck-typed:
    anything with ``to_suspects()``); its named divergence verdicts —
    per-phase model under/over-prediction at each rank count, straggler
    ranks — are appended to the suspect list, so one ``repro explain``
    surface covers both per-solve facts and at-scale model conformance.

    ``ledgers`` optionally maps method name →
    :class:`repro.observe.memtraffic.FreeRideLedger` (duck-typed: anything
    with ``ext_accesses`` / ``free_rides`` / ``free_ride_fraction`` /
    ``line_bytes``).  With a ledger present, ``cache-reuse-not-realized``
    is judged on — and cites — actual line-level evidence: it fires when
    extension accesses were *not* majority free rides, and the miss-growth
    rule's detail quotes the ledger's counts instead of aggregate misses
    alone.
    """
    verdict = AttributionVerdict(
        facts=list(facts), baseline=baseline, meta=dict(meta or {})
    )
    base = verdict.facts_for(baseline)
    for f in verdict.facts:
        if not f.converged:
            verdict.suspects.append(
                Suspect(
                    "no-convergence", f.method,
                    f"solve stopped at {f.iterations} iterations unconverged",
                )
            )
        if (
            f.modeled_seconds is not None
            and f.measured_seconds is not None
            and f.modeled_seconds > 0
        ):
            ratio = f.measured_seconds / f.modeled_seconds
            if ratio > 1 + model_tolerance or ratio < 1 / (1 + model_tolerance):
                dominant = (
                    max(f.modeled_breakdown, key=f.modeled_breakdown.get)
                    if f.modeled_breakdown
                    else "unknown"
                )
                verdict.suspects.append(
                    Suspect(
                        "model-divergence", f.method,
                        f"measured {f.measured_seconds * 1e3:.3f} ms vs modeled "
                        f"{f.modeled_seconds * 1e3:.3f} ms (x{ratio:.2f}); "
                        f"dominant modeled component: {dominant}",
                    )
                )
        if f.imbalance > 1 + imbalance_band:
            verdict.suspects.append(
                Suspect(
                    "load-imbalance", f.method,
                    f"per-rank nnz max/mean {f.imbalance:.3f} exceeds the "
                    f"±{imbalance_band * 100:.0f}% dynamic-filter band",
                )
            )
        if f.invariant is False:
            verdict.suspects.append(
                Suspect(
                    "comm-invariance-violated", f.method,
                    "halo schedule differs from the baseline's — the pattern "
                    "added communication",
                )
            )
        if base is not None and f is not base:
            if f.nnz > base.nnz and f.iterations >= base.iterations:
                verdict.suspects.append(
                    Suspect(
                        "ineffective-extension", f.method,
                        f"+{f.extra_nnz_percent:.1f}% nnz bought no iteration "
                        f"reduction ({f.iterations} vs {base.iterations})",
                    )
                )
            ledger = (ledgers or {}).get(f.method)
            ledger_evidence = ""
            if ledger is not None and ledger.ext_accesses:
                ledger_evidence = (
                    f"; ledger: {ledger.free_rides}/{ledger.ext_accesses} "
                    f"extension x-accesses were free rides "
                    f"({ledger.free_ride_fraction:.1%}) at "
                    f"{ledger.line_bytes} B lines"
                )
            miss_growth = (
                f.misses_total is not None
                and base.misses_total is not None
                and base.misses_total > 0
                and f.misses_total > 1.10 * base.misses_total
            )
            ride_minority = (
                ledger is not None
                and ledger.ext_accesses > 0
                and ledger.free_ride_fraction < 0.5
            )
            if miss_growth:
                verdict.suspects.append(
                    Suspect(
                        "cache-reuse-not-realized", f.method,
                        f"preconditioner misses grew {f.misses_total:.0f} vs "
                        f"baseline {base.misses_total:.0f} (>10%) — extension "
                        "entries are not riding already-touched cache lines"
                        + ledger_evidence,
                    )
                )
            elif ride_minority:
                verdict.suspects.append(
                    Suspect(
                        "cache-reuse-not-realized", f.method,
                        "most extension x-accesses newly filled cache lines"
                        + ledger_evidence,
                    )
                )
    if conformance is not None:
        verdict.suspects.extend(conformance.to_suspects())
    return verdict
