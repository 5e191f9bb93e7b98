"""Nested, labeled span tracing for the solver and setup hot paths.

A :class:`Tracer` records *spans* — named intervals with tags — organised as
a tree per task: entering ``tracer.span("pcg.iteration", rank=2)`` pushes
onto the running task's stack, so spans opened inside it become its children.
This is the substrate the benchmarks and the ``repro trace`` CLI build on:
the paper's measurements (SpMV vs halo exchange vs dot-product collectives,
setup-phase breakdowns) all become queryable span durations instead of
ad-hoc stopwatches.

When tracing is disabled (the default) every hot path goes through
:class:`NullTracer`, whose ``span`` returns a shared no-op context manager —
no allocation, no clock reads, no locking — so instrumented code pays only a
function call when not observed.

A *task* is a thread, or one rank of an SPMD run on that thread: the
:mod:`repro.mpisim` scheduler interleaves every rank coroutine on its
caller's thread, and before each resume calls :meth:`Tracer.activate` with
that rank's :class:`TaskContext` — its own span stack, and its own modeled clock
as the time source — and restores the thread's context afterwards.  Spans
opened by a rank program are therefore stamped in that rank's modeled
seconds; spans opened by driver code read the tracer's wall clock.  The
tracer is thread-safe: threads may each run their own scheduler.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable

__all__ = ["Span", "TaskContext", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One completed (or active) traced interval.

    Attributes
    ----------
    name:
        Dotted label, e.g. ``"pcg.iteration"`` or ``"halo.exchange"``.
    tags:
        Key/value labels (``rank``, ``bytes``...) attached at creation or via
        :meth:`set_tag` while the span is active.
    start, end:
        Clock readings (seconds, from the tracer's clock).  ``end`` is None
        while the span is active; instant events have ``end == start``.
    span_id, parent_id:
        Tree structure: ``parent_id`` is None for root spans.
    thread:
        Dense per-tracer track index (0 = first task seen): one per thread,
        and one per rank of the SPMD runs made on a thread.
    """

    __slots__ = ("name", "tags", "start", "end", "span_id", "parent_id", "thread")

    def __init__(
        self,
        name: str,
        tags: dict,
        start: float,
        span_id: int,
        parent_id: int | None,
        thread: int,
    ):
        self.name = name
        self.tags = tags
        self.start = start
        self.end: float | None = None
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while still active)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_tag(self, key: str, value) -> "Span":
        """Attach/overwrite one tag; returns self for chaining."""
        self.tags[key] = value
        return self

    def to_dict(self) -> dict:
        """Plain-dict form (used by the JSON exporter)."""
        return {
            "name": self.name,
            "tags": dict(self.tags),
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread,
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, duration={self.duration:.6f}, tags={self.tags})"


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`.

    The span is created (and the clock read) on ``__enter__`` so that
    ``s = tracer.span(...)`` may be prepared ahead of the timed region.
    """

    __slots__ = ("_tracer", "_name", "_tags", "_span")

    def __init__(self, tracer: "Tracer", name: str, tags: dict):
        self._tracer = tracer
        self._name = name
        self._tags = tags
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._tags)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.tags.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False


class TaskContext:
    """Where one task's spans go: its span stack, clock and track index.

    Built by :meth:`Tracer.task`, installed with :meth:`Tracer.activate`.
    """

    __slots__ = ("stack", "clock", "index")

    def __init__(self, clock: Callable[[], float], index: int):
        self.stack: list[Span] = []
        self.clock = clock
        self.index = index


class Tracer:
    """Collects spans from any number of tasks (threads, and ranks on them).

    Parameters
    ----------
    clock:
        Monotonic time source (seconds) of spans opened outside a rank
        program.  Injectable for deterministic tests; defaults to
        :func:`time.perf_counter`.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on it is atomic
        self._task_index: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    def task(self, key, clock: Callable[[], float] | None = None) -> TaskContext:
        """A fresh context for task ``key`` of the calling thread.

        ``key`` is the rank for SPMD tasks (``None`` is the thread itself):
        the same ``(thread, key)`` always maps to the same track index, so
        rank ``r`` of consecutive runs shares one track.  ``clock``
        defaults to the tracer's own.
        """
        ident = (threading.get_ident(), key)
        with self._lock:
            index = self._task_index.setdefault(ident, len(self._task_index))
        return TaskContext(clock if clock is not None else self._clock, index)

    def activate(self, context: TaskContext) -> TaskContext:
        """Make ``context`` the calling thread's current task; returns the
        one it replaces (activate that to switch back)."""
        previous = self._context()
        self._local.context = context
        return previous

    def _context(self) -> TaskContext:
        try:
            return self._local.context
        except AttributeError:  # first span on this thread: its own context
            context = self._local.context = self.task(None)
            return context

    def _open(self, name: str, tags: dict) -> Span:
        context = self._context()
        stack = context.stack
        parent_id = stack[-1].span_id if stack else None
        span = Span(name, tags, context.clock(), next(self._ids), parent_id,
                    context.index)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        context = self._context()
        span.end = context.clock()
        stack = context.stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order exit; drop it from wherever it is
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self._spans.append(span)

    # ------------------------------------------------------------------
    def span(self, name: str, **tags) -> _SpanContext:
        """Open a labeled span: ``with tracer.span("pcg.spmv", rank=p): ...``."""
        return _SpanContext(self, name, tags)

    def event(self, name: str, **tags) -> Span:
        """Record an instant (zero-duration) event at the current nesting."""
        span = self._open(name, tags)
        self._close(span)
        span.end = span.start  # instant: one clock reading, end == start
        return span

    def current(self) -> Span | None:
        """The innermost active span of the running task, if any."""
        stack = self._context().stack
        return stack[-1] if stack else None

    # querying ----------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Completed spans, ordered by start time."""
        with self._lock:
            return sorted(self._spans, key=lambda s: (s.start, s.span_id))

    def by_name(self, name: str) -> list[Span]:
        """Completed spans with exactly this name."""
        return [s for s in self.spans if s.name == name]

    def total_seconds(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.by_name(name))

    def children(self, span: Span) -> list[Span]:
        """Direct children of a span."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        """Top-level spans (no parent)."""
        return [s for s in self.spans if s.parent_id is None]

    def clear(self) -> None:
        """Drop all completed spans (active stacks are untouched)."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self)})"


class _NullSpanContext:
    """Shared do-nothing span: context manager and Span look-alike."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_tag(self, key: str, value) -> "_NullSpanContext":
        return self


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """The disabled tracer: every operation is a constant-cost no-op."""

    enabled = False

    def span(self, name: str, **tags) -> _NullSpanContext:
        """Return the shared no-op context manager."""
        return _NULL_SPAN

    def event(self, name: str, **tags) -> None:
        """Discard the event."""
        return None

    def current(self) -> None:
        """No active span, ever."""
        return None

    @property
    def spans(self) -> list:
        return []

    def by_name(self, name: str) -> list:
        return []

    def total_seconds(self, name: str) -> float:
        return 0.0

    def roots(self) -> list:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullTracer()"


#: Process-wide disabled tracer (the default active tracer).
NULL_TRACER = NullTracer()
