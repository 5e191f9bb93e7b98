"""Fault-injection hook point of the simulated MPI runtime.

The resilience layer (:mod:`repro.resilience`) defines *what* faults to
inject (a seeded, declarative :class:`~repro.resilience.FaultPlan`); this
module defines *where* they plug in.  An injector object — anything
implementing the small protocol below — is installed process-wide with
:func:`install_injector`; the message-passing engine
(:func:`~repro.mpisim.run_spmd`) and the BSP halo update
(:meth:`~repro.dist.halo.HaloSchedule.update`) consult
:func:`get_injector` on every message and apply the verdicts.

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
    sequence number; the receiving rank endpoint
    unwraps the first copy and silently discards any later copy with an
    already-seen sequence — the at-most-once delivery a real transport's
    sequence numbers provide.
    """

    __slots__ = ("seq", "payload")

    def __init__(self, seq: int, payload):
        self.seq = seq
        self.payload = payload

    def __repr__(self) -> str:
        return f"DuplicateEnvelope(seq={self.seq})"
