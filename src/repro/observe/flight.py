"""Solver flight recorder: per-iteration events and their interpretation.

The Krylov solvers (:func:`repro.core.cg.pcg`,
:func:`repro.core.solvers.pipelined_pcg`) emit one ``flight.iteration``
instant event per iteration when tracing is enabled — residual norm, the
``alpha``/``beta`` recurrence coefficients — plus a
``flight.true_residual`` event every :data:`TRUE_RESIDUAL_INTERVAL`
iterations comparing the recurrence residual against the explicitly computed
``‖b − A·x‖₂`` (recurrence *drift* is the classic failure mode of pipelined
CG), and a one-shot ``flight.divergence`` event the first time the residual
exceeds :data:`DIVERGENCE_FACTOR` times the initial norm.  With tracing
disabled none of this runs: the emission sites guard on ``tracer.enabled``,
so hot loops pay one attribute read.

This module is the *interpretation* side: :class:`FlightRecord` parses those
events back out of a :class:`~repro.instrument.Tracer` (or an exported trace
document) into per-iteration series with stagnation/divergence detectors and
a serialisable summary the :class:`~repro.observe.report.RunReport` embeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "TRUE_RESIDUAL_INTERVAL",
    "DIVERGENCE_FACTOR",
    "DriftCheck",
    "FlightRecord",
]

#: Iterations between explicit true-residual checks in the solvers.
TRUE_RESIDUAL_INTERVAL = 25

#: ``‖r‖ > DIVERGENCE_FACTOR · ‖r₀‖`` triggers the solvers' one-shot
#: ``flight.divergence`` event.
DIVERGENCE_FACTOR = 10.0

#: Event names of the recorder (the solver emission <-> parser contract).
ITERATION_EVENT = "flight.iteration"
TRUE_RESIDUAL_EVENT = "flight.true_residual"
DIVERGENCE_EVENT = "flight.divergence"


@dataclass(frozen=True)
class DriftCheck:
    """One explicit true-residual check.

    ``drift`` is ``|true − recurrence| / ‖r₀‖`` — how far the solver's
    recurrence residual has wandered from the residual of the actual iterate.
    """

    index: int
    true_residual: float
    recurrence_residual: float
    drift: float

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "index": self.index,
            "true_residual": self.true_residual,
            "recurrence_residual": self.recurrence_residual,
            "drift": self.drift,
        }


@dataclass
class FlightRecord:
    """Parsed per-iteration flight data of one solver run.

    Build with :meth:`from_tracer` (live :class:`~repro.instrument.Tracer`)
    or :meth:`from_spans` (span dictionaries of an exported trace document).
    """

    solver: str = ""
    indices: list[int] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    alphas: list[float | None] = field(default_factory=list)
    betas: list[float | None] = field(default_factory=list)
    drift_checks: list[DriftCheck] = field(default_factory=list)
    divergence_events: list[int] = field(default_factory=list)

    # construction ------------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer, solver: str | None = None) -> "FlightRecord":
        """Parse the flight events recorded by a tracer.

        ``solver`` filters to one solver's events when several ran under the
        same tracer (``"pcg"``, ``"pipelined_pcg"``).
        """
        spans = [
            {"name": s.name, "tags": s.tags}
            for s in tracer.spans
            if s.name.startswith("flight.")
        ]
        return cls.from_spans(spans, solver=solver)

    @classmethod
    def from_spans(cls, spans: list[dict], solver: str | None = None) -> "FlightRecord":
        """Parse flight events from span dictionaries (exported trace form)."""
        rec = cls(solver=solver or "")
        for span in spans:
            tags = span.get("tags", {})
            if solver is not None and tags.get("solver") != solver:
                continue
            name = span.get("name")
            if name == ITERATION_EVENT:
                if not rec.solver:
                    rec.solver = str(tags.get("solver", ""))
                rec.indices.append(int(tags.get("index", len(rec.indices))))
                rec.residuals.append(float(tags.get("residual", math.nan)))
                alpha = tags.get("alpha")
                beta = tags.get("beta")
                rec.alphas.append(None if alpha is None else float(alpha))
                rec.betas.append(None if beta is None else float(beta))
            elif name == TRUE_RESIDUAL_EVENT:
                rec.drift_checks.append(
                    DriftCheck(
                        index=int(tags.get("index", -1)),
                        true_residual=float(tags.get("true_residual", math.nan)),
                        recurrence_residual=float(
                            tags.get("recurrence_residual", math.nan)
                        ),
                        drift=float(tags.get("drift", math.nan)),
                    )
                )
            elif name == DIVERGENCE_EVENT:
                rec.divergence_events.append(int(tags.get("index", -1)))
        return rec

    # queries -----------------------------------------------------------
    @property
    def iterations(self) -> int:
        """Number of recorded iterations."""
        return len(self.indices)

    @property
    def final_residual(self) -> float:
        """Residual of the last recorded iteration (NaN when empty)."""
        return self.residuals[-1] if self.residuals else math.nan

    @property
    def max_drift(self) -> float:
        """Largest recorded recurrence drift (0.0 when never checked)."""
        return max((c.drift for c in self.drift_checks), default=0.0)

    def stagnation(self, window: int = 10, min_drop: float = 0.99) -> list[int]:
        """Iterations where convergence stalled.

        Returns every iteration index at which the residual failed to drop
        below ``min_drop`` times its value ``window`` iterations earlier —
        i.e. less than ``(1 − min_drop)`` relative progress over the window.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        flagged = []
        for k in range(window, len(self.residuals)):
            prev, cur = self.residuals[k - window], self.residuals[k]
            if not (math.isfinite(prev) and math.isfinite(cur)):
                continue
            if prev > 0 and cur > min_drop * prev:
                flagged.append(self.indices[k])
        return flagged

    def divergence(self, factor: float = DIVERGENCE_FACTOR) -> list[int]:
        """Iterations whose residual exceeds ``factor`` times the first one
        (or is non-finite) — the offline form of the solvers' one-shot
        ``flight.divergence`` event."""
        if not self.residuals:
            return []
        r0 = self.residuals[0]
        return [
            self.indices[k]
            for k, r in enumerate(self.residuals)
            if not math.isfinite(r) or (r0 > 0 and r > factor * r0)
        ]

    def summary(self) -> dict:
        """Serialisable digest embedded in run reports."""
        stalls = self.stagnation()
        return {
            "solver": self.solver,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "max_drift": self.max_drift,
            "drift_checks": [c.to_dict() for c in self.drift_checks],
            "stagnation_count": len(stalls),
            "stagnation_first": stalls[0] if stalls else None,
            "divergence_events": list(self.divergence_events),
        }

    def __repr__(self) -> str:
        return (
            f"FlightRecord(solver={self.solver!r}, iterations={self.iterations}, "
            f"drift_checks={len(self.drift_checks)})"
        )
