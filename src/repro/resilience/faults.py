"""Declarative, seeded fault plans and their runtime injector.

A :class:`FaultPlan` describes *which* faults a run should suffer —
message delays, drops, duplications, payload bit-flips, transient rank
stalls and permanent rank failures — as plain frozen dataclasses that
serialise to/from JSON (``to_dict``/``from_dict``).  Installing a plan
(:func:`fault_injection`) creates a :class:`FaultInjector` and registers
it at the :mod:`repro.mpisim.injection` hook point, where a faulted
``spmd_cg`` (:mod:`repro.dist.spmd`) and the BSP halo update consult it on
every message.

Determinism: every verdict is derived from
``(plan.seed, src, dst, tag, sequence)`` through a dedicated
:class:`numpy.random.Generator`, so a given plan injects the *same* faults
into the same message sequence, whatever the interleaving — chaos runs
are replayable, and a checkpoint rollback that replays messages
advances the sequence and therefore does not deterministically re-hit the
same transient fault.

On the SPMD runtime nothing sleeps: a stall, a sub-timeout delay and a
retry back-off each *advance the rank's modeled clock* by their full
nominal seconds, so they show up in the final clocks, in span durations
and in the timeline, exactly and for free.  Only the BSP
halo update, which has no clock, really sleeps, in small capped steps
(``sleep_cap``); there the semantics of a delay are carried by the
retry/timeout accounting (``halo.retries`` / ``halo.timeouts`` metrics,
``resilience.*`` spans), not by waiting out the nominal delay.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.errors import FaultPlanError
from repro.mpisim.injection import clear_injector, install_injector

__all__ = [
    "MessageDelay",
    "MessageDrop",
    "MessageDuplicate",
    "PayloadBitFlip",
    "RankStall",
    "RankFailure",
    "FaultPlan",
    "MessageVerdict",
    "FaultInjector",
    "fault_injection",
]


def _check_probability(p: float, what: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise FaultPlanError(f"{what}: probability must be in [0, 1], got {p}")


def _edge_matches(rule, src: int, dst: int) -> bool:
    return (rule.src is None or rule.src == src) and (
        rule.dst is None or rule.dst == dst
    )


@dataclass(frozen=True)
class MessageDelay:
    """Delay matching messages by ``seconds`` with ``probability``.

    A delay longer than the plan's ``message_timeout`` is indistinguishable
    from a loss to the receiver: it times the message out and triggers a
    retry (counted in ``halo.retries``).  Shorter delays are charged to the
    sender's modeled clock (SPMD) or slept, capped at ``sleep_cap`` (BSP),
    inside a ``resilience.delay`` span.
    ``src``/``dst`` of ``None`` match any rank.
    """

    probability: float
    seconds: float
    src: int | None = None
    dst: int | None = None

    def __post_init__(self):
        _check_probability(self.probability, "MessageDelay")
        if self.seconds < 0:
            raise FaultPlanError("MessageDelay: seconds must be >= 0")


@dataclass(frozen=True)
class MessageDrop:
    """Drop matching messages with ``probability``.

    A dropped message is retransmitted after a backoff (the reliable
    transport hiding under real MPI), so payloads are never lost — only
    time, which the retry accounting attributes.
    """

    probability: float
    src: int | None = None
    dst: int | None = None

    def __post_init__(self):
        _check_probability(self.probability, "MessageDrop")


@dataclass(frozen=True)
class MessageDuplicate:
    """Deliver matching messages twice with ``probability``.

    Only meaningful on the SPMD runtime: the receiver takes the first copy
    and drops the other by its per-edge sequence number.  The BSP halo update reads values
    directly and ignores duplication verdicts.
    """

    probability: float
    src: int | None = None
    dst: int | None = None

    def __post_init__(self):
        _check_probability(self.probability, "MessageDuplicate")


@dataclass(frozen=True)
class PayloadBitFlip:
    """Flip one bit of one float64 element of matching payloads.

    ``bit`` of ``None`` picks a uniformly random bit (0–63); exponent-range
    bits typically produce divergence the solver's checkpoint-restart path
    detects and rolls back.
    """

    probability: float
    bit: int | None = None
    src: int | None = None
    dst: int | None = None

    def __post_init__(self):
        _check_probability(self.probability, "PayloadBitFlip")
        if self.bit is not None and not 0 <= self.bit <= 63:
            raise FaultPlanError("PayloadBitFlip: bit must be in [0, 63]")


@dataclass(frozen=True)
class RankStall:
    """Transient stall: ``rank`` pauses for ``seconds`` once, at its
    ``at_update``-th halo update (on the SPMD runtime: its ``at_update``-th
    send or receive).  The stall is consumed exactly once."""

    rank: int
    seconds: float
    at_update: int = 1

    def __post_init__(self):
        if self.seconds < 0:
            raise FaultPlanError("RankStall: seconds must be >= 0")
        if self.at_update < 0:
            raise FaultPlanError("RankStall: at_update must be >= 0")


@dataclass(frozen=True)
class RankFailure:
    """Permanent failure: ``rank`` dies at its ``at_update``-th halo update.

    Surfaces as :class:`~repro.errors.RankFailedError`, which degraded-mode
    recovery (:func:`repro.resilience.solve_with_failover`) turns into a
    re-partition onto the survivors.
    """

    rank: int
    at_update: int = 1

    def __post_init__(self):
        if self.at_update < 0:
            raise FaultPlanError("RankFailure: at_update must be >= 0")


_RULE_TYPES = {
    "delays": MessageDelay,
    "drops": MessageDrop,
    "duplicates": MessageDuplicate,
    "bitflips": PayloadBitFlip,
    "stalls": RankStall,
    "failures": RankFailure,
}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative menu of faults plus the recovery knobs.

    The empty plan (``FaultPlan()``) injects nothing.  Transport knobs:
    ``message_timeout`` is the simulated per-message timeout (delays beyond
    it count as losses and trigger retries), ``max_retries`` bounds the
    retry loop before a :class:`~repro.errors.CommError` timeout,
    ``backoff`` is the base retry backoff (linear per attempt) and
    ``sleep_cap`` caps every *real* sleep of the BSP path so chaos runs stay
    fast (the SPMD runtime advances modeled clocks and never sleeps).
    """

    seed: int = 0
    delays: tuple[MessageDelay, ...] = ()
    drops: tuple[MessageDrop, ...] = ()
    duplicates: tuple[MessageDuplicate, ...] = ()
    bitflips: tuple[PayloadBitFlip, ...] = ()
    stalls: tuple[RankStall, ...] = ()
    failures: tuple[RankFailure, ...] = ()
    message_timeout: float = 0.05
    max_retries: int = 8
    backoff: float = 0.001
    sleep_cap: float = 0.005

    def __post_init__(self):
        for name, cls in _RULE_TYPES.items():
            rules = getattr(self, name)
            object.__setattr__(self, name, tuple(rules))
            for rule in getattr(self, name):
                if not isinstance(rule, cls):
                    raise FaultPlanError(
                        f"FaultPlan.{name} expects {cls.__name__} entries, "
                        f"got {type(rule).__name__}"
                    )
        if self.max_retries < 0:
            raise FaultPlanError("FaultPlan: max_retries must be >= 0")
        if self.message_timeout < 0 or self.backoff < 0 or self.sleep_cap < 0:
            raise FaultPlanError("FaultPlan: timeouts/backoff must be >= 0")

    @property
    def empty(self) -> bool:
        """True when the plan injects no faults at all."""
        return not any(getattr(self, name) for name in _RULE_TYPES)

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same plan under a different seed."""
        return replace(self, seed=int(seed))

    def to_dict(self) -> dict:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        doc: dict = {
            "seed": self.seed,
            "message_timeout": self.message_timeout,
            "max_retries": self.max_retries,
            "backoff": self.backoff,
            "sleep_cap": self.sleep_cap,
        }
        for name in _RULE_TYPES:
            rules = getattr(self, name)
            if rules:
                doc[name] = [
                    {f.name: getattr(r, f.name) for f in fields(r)} for r in rules
                ]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        if not isinstance(doc, dict):
            raise FaultPlanError("fault plan document must be a JSON object")
        kwargs: dict = {}
        for key in ("seed", "message_timeout", "max_retries", "backoff", "sleep_cap"):
            if key in doc:
                kwargs[key] = doc[key]
        for name, rule_cls in _RULE_TYPES.items():
            if name in doc:
                try:
                    kwargs[name] = tuple(rule_cls(**entry) for entry in doc[name])
                except TypeError as exc:
                    raise FaultPlanError(f"bad {name} entry: {exc}") from None
        unknown = set(doc) - set(kwargs) - {"format"}
        if unknown:
            raise FaultPlanError(f"unknown fault plan keys: {sorted(unknown)}")
        return cls(**kwargs)


@dataclass
class MessageVerdict:
    """The injector's decision for one message attempt."""

    dropped: bool = False
    duplicated: bool = False
    delay_s: float = 0.0
    #: Bit to flip in the payload (0–63), or ``None`` for no corruption.
    flip_bit: int | None = None
    #: Uniform draw in [0, 1) selecting which payload element to corrupt.
    flip_pos: float = 0.0

    @property
    def clean(self) -> bool:
        """True when the attempt is delivered untouched."""
        return (
            not self.dropped
            and not self.duplicated
            and self.delay_s == 0.0
            and self.flip_bit is None
        )


_CLEAN_VERDICT = MessageVerdict()


class FaultInjector:
    """Runtime state of an installed :class:`FaultPlan`.

    Thread-safe: per-edge message sequence numbers and per-rank update
    counters are guarded by one lock; verdicts themselves are pure
    functions of ``(seed, src, dst, tag, seq)``.  Injection counts are
    kept per fault kind (:attr:`counts`) for chaos reports.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._edge_seq: dict[tuple[int, int, int], int] = {}
        self._updates = 0
        self._rank_ops: dict[int, int] = {}
        self._consumed_stalls: set[int] = set()
        self._acknowledged: set[int] = set()
        self._dup_seq: dict[tuple[int, int], int] = {}
        self.counts: dict[str, int] = {
            "delays": 0, "drops": 0, "duplicates": 0, "bitflips": 0,
            "stalls": 0, "failures": 0, "retries": 0,
        }

    # ------------------------------------------------------------------
    def _count(self, kind: str) -> None:
        with self._lock:
            self.counts[kind] += 1

    def next_duplicate_seq(self, src: int, dst: int) -> int:
        """The sequence number of the next duplicated message on edge
        ``src → dst`` (1, 2, … in the sender's order): unique per edge, and
        like every verdict independent of how ranks interleave."""
        key = (int(src), int(dst))
        with self._lock:
            self._dup_seq[key] = seq = self._dup_seq.get(key, 0) + 1
            return seq

    def begin_update(self) -> int:
        """Advance the halo-update counter; returns the 1-based index."""
        with self._lock:
            self._updates += 1
            return self._updates

    @property
    def updates(self) -> int:
        """Halo updates seen so far."""
        return self._updates

    # ------------------------------------------------------------------
    def message_verdict(self, src: int, dst: int, tag: int = 0) -> MessageVerdict:
        """Seeded verdict for the next message attempt on ``src → dst``."""
        plan = self.plan
        if plan.empty:
            return _CLEAN_VERDICT
        key = (int(src), int(dst), int(tag))
        with self._lock:
            seq = self._edge_seq.get(key, 0)
            self._edge_seq[key] = seq + 1
        rng = np.random.default_rng(
            [plan.seed & 0x7FFFFFFF, src & 0xFFFF, dst & 0xFFFF, tag & 0xFFFF, seq]
        )
        verdict = MessageVerdict()
        for rule in plan.drops:
            if _edge_matches(rule, src, dst) and rng.random() < rule.probability:
                verdict.dropped = True
                self._count("drops")
                break
        for rule in plan.delays:
            if _edge_matches(rule, src, dst) and rng.random() < rule.probability:
                verdict.delay_s = max(verdict.delay_s, rule.seconds)
                self._count("delays")
        for rule in plan.duplicates:
            if _edge_matches(rule, src, dst) and rng.random() < rule.probability:
                verdict.duplicated = True
                self._count("duplicates")
                break
        for rule in plan.bitflips:
            if _edge_matches(rule, src, dst) and rng.random() < rule.probability:
                verdict.flip_bit = (
                    rule.bit if rule.bit is not None else int(rng.integers(0, 64))
                )
                verdict.flip_pos = float(rng.random())
                self._count("bitflips")
                break
        return verdict

    def record_retry(self) -> None:
        """Count one retry attempt (for chaos-report accounting)."""
        self._count("retries")

    # ------------------------------------------------------------------
    def consume_stall(self, rank: int) -> float:
        """Seconds ``rank`` should stall right now (0.0 almost always).

        Each :class:`RankStall` fires once, when the rank's op/update
        counter reaches ``at_update``.
        """
        if not self.plan.stalls:
            return 0.0
        with self._lock:
            ops = self._rank_ops.get(rank, 0) + 1
            self._rank_ops[rank] = ops
            total = 0.0
            for i, rule in enumerate(self.plan.stalls):
                if rule.rank == rank and i not in self._consumed_stalls and ops >= rule.at_update:
                    self._consumed_stalls.add(i)
                    total += rule.seconds
                    self.counts["stalls"] += 1
            return total

    def rank_failed(self, rank: int) -> bool:
        """Whether ``rank`` is permanently failed at the current update."""
        if not self.plan.failures:
            return False
        with self._lock:
            if rank in self._acknowledged:
                return False
            for rule in self.plan.failures:
                if rule.rank == rank and self._updates >= rule.at_update:
                    self.counts["failures"] += 1
                    return True
        return False

    def acknowledge_failure(self, rank: int) -> None:
        """Mark ``rank``'s failure as handled (degraded mode took over).

        Subsequent :meth:`rank_failed` calls return False for it, so the
        re-partitioned solve proceeds; rank ids refer to the *original*
        communicator.
        """
        with self._lock:
            self._acknowledged.add(int(rank))

    # ------------------------------------------------------------------
    def sleep(self, seconds: float) -> None:
        """Really sleep, capped at the plan's ``sleep_cap`` (BSP halo update
        only; the SPMD runtime advances the rank's modeled clock instead)."""
        if seconds > 0:
            time.sleep(min(seconds, self.plan.sleep_cap))

    def corrupt(self, payload, verdict: MessageVerdict):
        """Apply the verdict's bit-flip to a float64 array copy, in place.

        Non-float64-array payloads are returned untouched (the fault model
        corrupts data planes, not control messages).  Returns the payload.
        """
        if (
            verdict.flip_bit is None
            or not isinstance(payload, np.ndarray)
            or payload.dtype != np.float64
            or payload.size == 0
        ):
            return payload
        flat = np.ascontiguousarray(payload).reshape(-1)
        idx = min(int(verdict.flip_pos * flat.size), flat.size - 1)
        bits = flat.view(np.uint64)
        bits[idx] ^= np.uint64(1) << np.uint64(verdict.flip_bit)
        return flat.reshape(payload.shape)

    def __repr__(self) -> str:
        active = {k: v for k, v in self.counts.items() if v}
        return f"FaultInjector(seed={self.plan.seed}, injected={active or 'none'})"


class fault_injection:
    """Context manager installing a plan's injector for the enclosed scope.

    ::

        plan = FaultPlan(seed=7, delays=(MessageDelay(0.05, 0.08),))
        with fault_injection(plan) as injector:
            result = pcg(dA, b, precond=pre)
        print(injector.counts)

    The previous injector (normally ``None``) is restored on exit.
    Accepts a :class:`FaultPlan` or an existing :class:`FaultInjector`.
    """

    def __init__(self, plan: FaultPlan | FaultInjector):
        self.injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
        self._previous = None

    def __enter__(self) -> FaultInjector:
        self._previous = install_injector(self.injector)
        return self.injector

    def __exit__(self, *exc) -> None:
        if self._previous is None:
            clear_injector()
        else:
            install_injector(self._previous)
