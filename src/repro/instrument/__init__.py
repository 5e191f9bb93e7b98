"""Unified instrumentation: spans, metrics and trace exporters.

The paper's headline claims are measurements — CG iteration counts, solver
time breakdowns (SpMV vs halo exchange vs dot-product collectives), per-rank
nonzero imbalance, byte-for-byte communication invariance.  This package
gives the whole repo one event model for producing them:

* :class:`Tracer` — nested, labeled spans (``span("pcg.iteration", rank=r)``)
  with one stack per task (a thread, or one rank of an SPMD run on it,
  stamped by that rank's modeled clock);
* :class:`MetricsRegistry` — counters, gauges and histograms with per-rank
  tags;
* exporters — plain JSON (:func:`write_json_trace`) and Chrome
  ``trace_event`` (:func:`write_chrome_trace`, loadable in
  ``chrome://tracing`` / Perfetto);
* a zero-overhead disabled mode: the default active tracer/registry are
  no-op singletons, so instrumented hot paths cost one function call when
  tracing is off.

Typical use::

    from repro.instrument import Tracer, MetricsRegistry, tracing, write_chrome_trace

    tracer, metrics = Tracer(), MetricsRegistry()
    with tracing(tracer, metrics):
        pre = build_fsaie_comm(A, part)
        result = pcg(dA, b, precond=pre, tracker=tracker)
    write_chrome_trace("trace.json", tracer, metrics)

Library code fetches the active sinks with :func:`get_tracer` /
:func:`get_metrics`; it never holds references across calls, so enabling
tracing mid-process affects the very next operation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.instrument.export import (
    TraceError,
    read_json_trace,
    write_chrome_trace,
    write_json_trace,
)
from repro.instrument.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.instrument.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "get_tracer",
    "get_metrics",
    "tracing",
    "TraceError",
    "write_json_trace",
    "read_json_trace",
    "write_chrome_trace",
]

_state_lock = threading.Lock()
_active_tracer: Tracer | NullTracer = NULL_TRACER
_active_metrics: MetricsRegistry | NullMetricsRegistry = NULL_METRICS


def get_tracer() -> Tracer | NullTracer:
    """The active tracer (the no-op :data:`NULL_TRACER` when disabled)."""
    return _active_tracer


def get_metrics() -> MetricsRegistry | NullMetricsRegistry:
    """The active metrics registry (:data:`NULL_METRICS` when disabled)."""
    return _active_metrics


@contextmanager
def tracing(tracer: Tracer | None = None, metrics: MetricsRegistry | None = None):
    """Scope-limited tracing: install on entry, restore the previous pair on exit.

    Yields the installed ``(tracer, metrics)`` pair::

        with tracing() as (tracer, metrics):
            pcg(dA, b, precond=pre)
        print(tracer.total_seconds("pcg.iteration"))
    """
    global _active_tracer, _active_metrics
    with _state_lock:
        previous = (_active_tracer, _active_metrics)
        _active_tracer = tracer if tracer is not None else Tracer()
        _active_metrics = metrics if metrics is not None else MetricsRegistry()
        installed = (_active_tracer, _active_metrics)
    try:
        yield installed
    finally:
        with _state_lock:
            _active_tracer, _active_metrics = previous
