"""Fault-injection hook point of the simulated MPI runtime.

The resilience layer (:mod:`repro.resilience`) defines *what* faults to
inject (a seeded, declarative :class:`~repro.resilience.FaultPlan`); this
module defines *where* they plug in.  An injector object — anything
implementing the small protocol below — is installed process-wide with
:func:`install_injector`; a faulted ``spmd_cg`` (the faulted clock
ledger of :mod:`repro.dist.spmd`) and the BSP halo update
(:meth:`~repro.dist.halo.HaloSchedule.update`) consult
:func:`get_injector` once per run or update and apply the verdicts on
every message.

Layering: this module has **no** dependency on :mod:`repro.resilience` —
it only stores the active injector — so the low-level runtime stays free
of upward imports.  When no injector is installed (the default),
:func:`get_injector` returns ``None`` and every hot path takes its
original branch: fault injection is a single ``is not None`` test away
from zero overhead.

Injector protocol (duck-typed; :class:`repro.resilience.FaultInjector` is
the canonical implementation):

* ``message_verdict(src, dst, tag)`` → object with ``dropped``,
  ``duplicated``, ``delay_s``, ``flip_bit`` (``None`` or 0–63) attributes;
* ``consume_stall(rank)`` → seconds the rank should stall (0.0 normally);
* ``rank_failed(rank)`` → bool, permanent failure;
* ``begin_update()`` → advance and return the halo-update counter;
* ``next_duplicate_seq(src, dst)`` → the next duplicate's per-edge
  sequence number;
* ``corrupt(payload, verdict)`` → the payload with the verdict's bit
  flipped (float64 arrays only);
* ``record_retry()`` → count one retry;
* ``plan`` → the installed plan (``message_timeout``, ``max_retries``,
  ``backoff``, ``sleep_cap`` attributes).
"""

from __future__ import annotations

import threading

__all__ = [
    "get_injector",
    "install_injector",
    "clear_injector",
    "DuplicateEnvelope",
]

_lock = threading.Lock()
_active = None


def get_injector():
    """The installed fault injector, or ``None`` (the default, fault-free)."""
    return _active


def install_injector(injector):
    """Install ``injector`` process-wide; returns the previous one (or None).

    Prefer the scoped :func:`repro.resilience.fault_injection` context
    manager, which restores the previous injector on exit.
    """
    global _active
    with _lock:
        previous = _active
        _active = injector
        return previous


def clear_injector() -> None:
    """Remove any installed injector, restoring fault-free execution."""
    global _active
    with _lock:
        _active = None


class DuplicateEnvelope:
    """Wrapper marking a message that was injected as a duplicate.

    Both copies of a duplicated message travel wrapped with the same
    per-edge sequence number; the receiver takes the first copy and drops
    the other — the at-most-once delivery a real transport's sequence
    numbers provide.  A duplicated message is booked at its envelope's
    :func:`~repro.mpisim.payload_nbytes`.
    """

    __slots__ = ("seq", "payload")

    def __init__(self, seq: int, payload):
        self.seq = seq
        self.payload = payload

    def __repr__(self) -> str:
        return f"DuplicateEnvelope(seq={self.seq})"
