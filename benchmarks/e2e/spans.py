"""Span recorder of the end-to-end benchmark.

The drivers in :mod:`workloads` wrap every call into a layer in
``rec.span(name)``.  With the recorder off that returns one shared no-op
context, so the untraced and the traced run execute the same call sequence;
with it on, each span stores its name, start, end, parent, workload and
repetition.  Spans stay in memory until :func:`write_trace`.

The recorder is the benchmark's own: it does not read ``repro.instrument``,
so it keeps measuring when the program's spans move or disappear.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["ROOT", "Span", "Recorder", "self_times", "rep_profile", "write_trace"]

#: Name of the span the runner opens around one whole repetition.
ROOT = "rep"

_OFF = nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into ``Recorder.spans``; -1 for a repetition's root
    workload: str
    rep: int


class Recorder:
    """Collects the spans of one workload run; a no-op while ``enabled`` is false."""

    def __init__(self, workload: str, enabled: bool = False):
        self.workload = workload
        self.enabled = enabled
        self.rep = 0
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str):
        """Context manager timing one call; records nothing when tracing is off."""
        return self._record(name) if self.enabled else _OFF

    @contextmanager
    def _record(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.workload, self.rep)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus the part its direct children cover.

    Children of one span never overlap (one thread, strictly nested), so the
    covered part is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def rep_profile(spans: list[Span], rep: int) -> dict:
    """Totals of one traced repetition.

    ``busy`` maps a span name to the summed duration of its spans, ``self``
    to their summed self time; ``wall`` is the root span's duration and
    ``covered`` the part of it that child spans account for.
    """
    own = self_times(spans)
    busy: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    wall = 0.0
    uncovered = 0.0
    for s, self_s in zip(spans, own):
        if s.rep != rep:
            continue
        if s.parent < 0:
            wall += s.end - s.start
            uncovered += self_s
            continue
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + self_s
    return {"busy": busy, "self": self_by_name, "wall": wall, "covered": wall - uncovered}


def write_trace(path: Path, recorder: Recorder) -> None:
    """Dump the recorded spans, with their self times, as one JSON document."""
    own = self_times(recorder.spans)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": recorder.workload,
        "clock": "time.perf_counter seconds",
        "spans": [dict(asdict(s), self_s=self_s) for s, self_s in zip(recorder.spans, own)],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
