"""Admission control and per-tenant QoS accounting for the solve farm.

The farm is multi-tenant: every :class:`~repro.serve.farm.SolveRequest`
names a tenant, and each tenant runs under a :class:`TenantPolicy` — a
token budget bounding its in-flight solves, plus an optional
:class:`~repro.resilience.FaultPlan` that turns the tenant into a *chaos
tenant* (its solves run with the plan's faults installed, the
chaos-under-load recipe in ``docs/SERVING.md``).

The :class:`AdmissionController` is the front door.  Admission is a pure,
lock-protected decision — no I/O, no awaits — so its counts are exactly
reproducible and gateable: a request is admitted iff its tenant is known,
the global bounded queue has room, and the tenant has a token left.
Every decision is an :class:`AdmissionVerdict`; refusals carry a
machine-readable reason, and the shed fraction they induce is one of the
gated numbers in ``BENCH_serve.json``.

Completed solves report their latency back via
:meth:`AdmissionController.observe_latency`, which feeds one
:class:`~repro.observe.stream.StreamingHistogram` per tenant (microsecond
grid) — the source of the per-tenant p50/p95/p99 columns in the serve
report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.instrument import get_metrics
from repro.observe.stream import StreamingHistogram

__all__ = [
    "TenantPolicy",
    "AdmissionVerdict",
    "TenantStats",
    "AdmissionController",
]

#: Histogram grid for request latencies: 1 µs floor, ~19% bucket width.
LATENCY_LO = 1e-6
LATENCY_BASE = 2.0 ** 0.25


@dataclass(frozen=True)
class TenantPolicy:
    """QoS contract of one tenant.

    ``max_in_flight`` is the token budget: each admitted request consumes a
    token, returned on completion, so it bounds the tenant's concurrent
    solves.  ``fault_plan`` (a :class:`repro.resilience.FaultPlan`), when
    set, makes this a chaos tenant — the farm installs the plan around the
    tenant's solves, injecting its faults only into that tenant's traffic.
    """

    name: str
    max_in_flight: int = 8
    fault_plan: object | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("TenantPolicy: name must be non-empty")
        if self.max_in_flight < 1:
            raise ValueError(
                f"TenantPolicy {self.name!r}: max_in_flight must be >= 1, "
                f"got {self.max_in_flight}"
            )

    @property
    def chaotic(self) -> bool:
        """True when this tenant runs under a fault plan."""
        return self.fault_plan is not None


@dataclass(frozen=True)
class AdmissionVerdict:
    """Outcome of one admission decision.

    ``reason`` is ``"ok"`` on admission; refusals say why —
    ``"unknown-tenant"``, ``"queue-full"`` (global bounded queue) or
    ``"tenant-budget"`` (token budget exhausted).  ``queue_depth`` and
    ``in_flight`` snapshot the controller at decision time.
    """

    admitted: bool
    tenant: str
    reason: str
    queue_depth: int = 0
    in_flight: int = 0

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "admitted": self.admitted,
            "tenant": self.tenant,
            "reason": self.reason,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
        }


@dataclass
class TenantStats:
    """Always-on per-tenant accounting (admissions, sheds, latency)."""

    policy: TenantPolicy
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    failed: int = 0
    in_flight: int = 0
    shed_reasons: dict = field(default_factory=dict)
    latency: StreamingHistogram = field(
        default_factory=lambda: StreamingHistogram(lo=LATENCY_LO, base=LATENCY_BASE)
    )

    @property
    def requests(self) -> int:
        """Total admission decisions for this tenant (admitted + shed)."""
        return self.admitted + self.shed

    @property
    def shed_fraction(self) -> float:
        """Shed decisions over total decisions (0.0 before any request)."""
        return self.shed / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable form (latency as p50/p95/p99/mean seconds)."""
        return {
            "tenant": self.policy.name,
            "max_in_flight": self.policy.max_in_flight,
            "chaotic": self.policy.chaotic,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "shed_fraction": self.shed_fraction,
            "shed_reasons": dict(self.shed_reasons),
            "latency": {
                "count": self.latency.count,
                "mean_s": self.latency.mean,
                "p50_s": self.latency.percentile(50),
                "p95_s": self.latency.percentile(95),
                "p99_s": self.latency.percentile(99),
            },
        }


class AdmissionController:
    """Bounded-queue, token-budget admission for the solve farm.

    ``queue_limit`` bounds requests admitted-but-not-finished across *all*
    tenants (the global queue); each tenant additionally spends from its
    own ``max_in_flight`` token budget.  All state transitions happen under
    one lock, so the admitted/shed counts are deterministic for a given
    request sequence — which is what lets ``scripts/check_bench.py
    serve`` gate them exactly.
    """

    def __init__(self, tenants, *, queue_limit: int = 64):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.queue_limit = queue_limit
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantStats] = {}
        for policy in tenants:
            if policy.name in self._tenants:
                raise ValueError(f"duplicate tenant {policy.name!r}")
            self._tenants[policy.name] = TenantStats(policy=policy)
        self._in_flight = 0

    @property
    def tenants(self) -> list[str]:
        """Registered tenant names, in registration order."""
        return list(self._tenants)

    def policy(self, tenant: str) -> TenantPolicy:
        """The policy of ``tenant`` (KeyError when unknown)."""
        return self._tenants[tenant].policy

    def stats(self, tenant: str) -> TenantStats:
        """Live stats of ``tenant`` (KeyError when unknown)."""
        return self._tenants[tenant]

    @property
    def in_flight(self) -> int:
        """Requests currently admitted and not yet released."""
        with self._lock:
            return self._in_flight

    def _shed(self, stats: TenantStats | None, tenant: str, reason: str) -> AdmissionVerdict:
        if stats is not None:
            stats.shed += 1
            stats.shed_reasons[reason] = stats.shed_reasons.get(reason, 0) + 1
        get_metrics().counter("serve.shed", tenant=tenant, reason=reason).inc()
        return AdmissionVerdict(
            admitted=False,
            tenant=tenant,
            reason=reason,
            queue_depth=self._in_flight,
            in_flight=stats.in_flight if stats is not None else 0,
        )

    def admit(self, tenant: str) -> AdmissionVerdict:
        """Decide one request: consume a queue slot and a tenant token, or shed.

        Admitted requests *must* be paired with exactly one
        :meth:`release` call (the farm does this in a ``finally``).
        """
        with self._lock:
            stats = self._tenants.get(tenant)
            if stats is None:
                return self._shed(None, tenant, "unknown-tenant")
            if self._in_flight >= self.queue_limit:
                return self._shed(stats, tenant, "queue-full")
            if stats.in_flight >= stats.policy.max_in_flight:
                return self._shed(stats, tenant, "tenant-budget")
            self._in_flight += 1
            stats.in_flight += 1
            stats.admitted += 1
            get_metrics().counter("serve.admitted", tenant=tenant).inc()
            return AdmissionVerdict(
                admitted=True,
                tenant=tenant,
                reason="ok",
                queue_depth=self._in_flight,
                in_flight=stats.in_flight,
            )

    def release(self, tenant: str, *, ok: bool = True) -> None:
        """Return an admitted request's slot and token; ``ok=False`` counts
        the request as failed instead of completed."""
        with self._lock:
            stats = self._tenants[tenant]
            if stats.in_flight < 1:
                raise RuntimeError(
                    f"release without matching admit for tenant {tenant!r}"
                )
            stats.in_flight -= 1
            self._in_flight -= 1
            if ok:
                stats.completed += 1
            else:
                stats.failed += 1

    def observe_latency(self, tenant: str, seconds: float) -> None:
        """Stream one request latency into the tenant's histogram and the
        ``serve.latency`` metric."""
        with self._lock:
            self._tenants[tenant].latency.observe(seconds)
        get_metrics().counter("serve.latency.observations", tenant=tenant).inc()

    @property
    def shed_fraction(self) -> float:
        """Global shed fraction across all tenants (unknown-tenant sheds
        excluded — they have no registered tenant to charge)."""
        with self._lock:
            admitted = sum(s.admitted for s in self._tenants.values())
            shed = sum(s.shed for s in self._tenants.values())
        total = admitted + shed
        return shed / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable form: global counts plus per-tenant stats."""
        with self._lock:
            tenants = {name: s.to_dict() for name, s in self._tenants.items()}
            admitted = sum(s.admitted for s in self._tenants.values())
            shed = sum(s.shed for s in self._tenants.values())
        total = admitted + shed
        return {
            "queue_limit": self.queue_limit,
            "admitted": admitted,
            "shed": shed,
            "shed_fraction": shed / total if total else 0.0,
            "tenants": tenants,
        }

    def __repr__(self) -> str:
        return (
            f"AdmissionController(tenants={self.tenants}, "
            f"queue_limit={self.queue_limit}, in_flight={self.in_flight})"
        )
