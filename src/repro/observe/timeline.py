"""Cross-rank timeline reconstruction and critical-path analysis.

A traced SPMD solve (:func:`repro.dist.spmd.spmd_cg`, emitted from the
clocked executor's ledger) produces one span stream per rank:
``spmd.compute`` / ``spmd.halo.pack`` / ``spmd.halo.wait`` /
``spmd.reduction`` phase spans, ``mpisim.wait`` spans of the receives that
waited and ``mpisim.send`` instant events, plus one ``spmd.rank`` root
span per rank.  Every timestamp
is that rank's *modeled* clock — seconds since the launch on the one time
axis all ranks share — so there are no clock offsets to reconcile.  This
module merges those streams into one global :class:`Timeline`:

* spans are *flattened* to :class:`Segment` self-time intervals (a parent's
  interval minus its children), so per-rank segments never overlap and the
  total busy time equals the sum of root-span durations exactly;
* each segment is classified as ``compute`` / ``pack`` / ``wait`` /
  ``reduction`` (see :func:`classify_segment`; a receive's wait inside a
  reduction span counts as reduction), decomposing every CG iteration the
  way the paper's cost model does;
* :meth:`Timeline.critical_path` runs longest-path dynamic programming over
  the dependency DAG induced by same-rank program order plus the
  ``mpisim.send`` → wait-segment edges of the halo exchanges and allreduce
  message patterns, reporting per-rank slack and the top-k critical edges;
* documents round-trip via a versioned JSON form
  (``format: "repro-timeline"``) with monotonicity validation on load.

A traced run's critical path is deterministic but depends on the clock
model; the *static* :func:`halo_critical_path` derives the bottleneck rank and its incoming
halo edges purely from a :class:`~repro.dist.halo.HaloSchedule` — a
byte-for-byte comparable object that must be identical between FSAI and
FSAIE-Comm (the paper's invariance claim, §4).

Layering: like the rest of :mod:`repro.observe` this module reads spans and
schedules back; it never imports :mod:`repro.core`.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ReproError

__all__ = [
    "TIMELINE_FORMAT",
    "TIMELINE_VERSION",
    "TimelineError",
    "Segment",
    "CommEdge",
    "CriticalPath",
    "Timeline",
    "HaloCriticalPath",
    "halo_critical_path",
    "classify_segment",
]

#: Schema identifier and version stamped into saved timeline documents.
TIMELINE_FORMAT = "repro-timeline"
TIMELINE_VERSION = 1

#: Span names whose segments count as launch scaffolding, not busy work.
_SCAFFOLD_NAMES = frozenset({"spmd.rank"})

#: Ordered substring rules mapping span names to segment kinds.
_KIND_RULES = (
    (".wait", "wait"),
    ("resilience.stall", "wait"),
    ("resilience.delay", "wait"),
    ("resilience.backoff", "wait"),
    ("halo.pack", "pack"),
    ("halo.unpack", "pack"),
    ("halo.update", "pack"),
    ("halo.exchange", "pack"),
    ("allreduce", "reduction"),
    ("reduction", "reduction"),
    (".dot", "reduction"),
)


class TimelineError(ReproError):
    """A timeline cannot be reconstructed: malformed document, newer schema,
    or span streams with physically impossible (non-monotonic) timestamps."""


def classify_segment(name: str) -> str:
    """Map a span name to its phase kind: compute / pack / wait / reduction."""
    for needle, kind in _KIND_RULES:
        if needle in name:
            return kind
    return "compute"


@dataclass(frozen=True)
class Segment:
    """One rank's exclusive (self-time) interval of a single phase."""

    rank: int
    name: str
    kind: str
    start: float
    end: float
    src: int | None = None
    bytes: int = 0

    @property
    def duration(self) -> float:
        """Segment length in seconds."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        d = {
            "rank": self.rank,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
        }
        if self.src is not None:
            d["src"] = self.src
        if self.bytes:
            d["bytes"] = self.bytes
        return d


@dataclass(frozen=True)
class CommEdge:
    """A cross-rank dependency: a message from ``src`` satisfied a wait on
    ``dst``, charging ``wait_seconds`` of blocked time to the edge."""

    src: int
    dst: int
    bytes: int
    time: float
    wait_seconds: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "src": self.src,
            "dst": self.dst,
            "bytes": self.bytes,
            "time": self.time,
            "wait_seconds": self.wait_seconds,
        }


@dataclass
class CriticalPath:
    """Longest dependency chain through the merged timeline.

    ``length`` counts each segment's contribution truncated to the part
    after its predecessor finished (a wait overlaps the send-side segment
    that releases it), so ``max per-rank busy <= length <= makespan``.
    """

    segments: list[Segment] = field(default_factory=list)
    edges: list[CommEdge] = field(default_factory=list)
    length: float = 0.0

    def top_edges(self, k: int = 5) -> list[CommEdge]:
        """The path's cross-rank hops ranked by blocked time, then bytes."""
        ranked = sorted(self.edges, key=lambda e: (-e.wait_seconds, -e.bytes))
        return ranked[:k]

    def to_dict(self, *, top_k: int = 5) -> dict:
        """JSON-serialisable form."""
        return {
            "length_seconds": self.length,
            "n_segments": len(self.segments),
            "ranks_visited": sorted({s.rank for s in self.segments}),
            "top_edges": [e.to_dict() for e in self.top_edges(top_k)],
        }


def _validate_monotonic(segments: list[Segment]) -> None:
    """Reject per-rank streams whose timestamps run backwards *in the given
    order* — used on loaded documents, whose segment order is part of the
    schema (sorted by start)."""
    last_start: dict[int, float] = {}
    for seg in segments:
        prev = last_start.get(seg.rank)
        if prev is not None and seg.start < prev:
            raise TimelineError(
                f"segment timestamps are non-monotonic within rank {seg.rank}: "
                f"{seg.name!r} starts at {seg.start!r} after {prev!r}"
            )
        last_start[seg.rank] = seg.start


def _validate_durations(segments: list[Segment]) -> None:
    for seg in segments:
        if seg.end < seg.start:
            raise TimelineError(
                f"segment {seg.name!r} on rank {seg.rank} ends before it starts"
            )


class Timeline:
    """A merged, per-rank-aligned view of one SPMD run.

    Construct via :meth:`from_tracer` (live run), :meth:`from_spans` /
    :meth:`from_trace_doc` (exported spans) or :meth:`load` (saved
    timeline).  Segments are kept sorted by ``(start, rank, end)``, edges
    by ``(time, src, dst, bytes)``, whatever order the spans came in;
    per-rank streams are validated to be monotonic on every path.
    """

    def __init__(
        self,
        segments,
        *,
        edges=None,
        meta: dict | None = None,
    ):
        self.segments: list[Segment] = sorted(
            segments, key=lambda s: (s.start, s.rank, s.end)
        )
        _validate_durations(self.segments)
        self.edges: list[CommEdge] = sorted(
            edges or [], key=lambda e: (e.time, e.src, e.dst, e.bytes)
        )
        self.meta: dict = dict(meta or {})
        self._critical: CriticalPath | None = None

    # construction ------------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer, *, meta: dict | None = None) -> "Timeline":
        """Build from a live :class:`~repro.instrument.Tracer`."""
        return cls.from_spans([s.to_dict() for s in tracer.spans], meta=meta)

    @classmethod
    def from_trace_doc(cls, doc: dict, *, meta: dict | None = None) -> "Timeline":
        """Build from an exported ``repro-trace`` document."""
        if doc.get("format") != "repro-trace":
            raise TimelineError("not a repro-trace document")
        return cls.from_spans(doc.get("spans", []), meta=meta)

    @classmethod
    def from_spans(
        cls, spans: list[dict], *, meta: dict | None = None
    ) -> "Timeline":
        """Merge raw span dictionaries into a timeline.

        Rank attribution: a span belongs to the rank in its ``rank`` tag,
        or its nearest ancestor's, or the rank of the ``spmd.rank`` root
        span covering its interval on the same track.

        An empty stream, a stream of malformed spans (no ``start``), or a
        stream in which no span can be attributed to any rank raises
        :class:`TimelineError` naming the offending stream — a cross-rank
        timeline of zero ranks is always a caller error, and the earlier
        bare ``KeyError`` pointed at this module instead of the input.
        """
        spans = list(spans)
        stream = (meta or {}).get("source") or (meta or {}).get("label") or "<spans>"
        if not spans:
            raise TimelineError(
                f"span stream {stream!r} is empty: no spans to merge into a "
                "timeline (was tracing enabled for the run?)"
            )
        for i, d in enumerate(spans):
            if not isinstance(d, dict) or "start" not in d:
                raise TimelineError(
                    f"span #{i} ({(d.get('name') if isinstance(d, dict) else d)!r}) "
                    f"in stream {stream!r} has no 'start' timestamp"
                )
        by_id: dict = {}
        for d in spans:
            sid = d.get("span_id")
            if sid is not None:
                by_id[sid] = d

        # thread -> [(start, end, rank)] windows from spmd.rank root spans
        windows: dict[int, list[tuple[float, float, int]]] = {}
        for d in spans:
            if d.get("name") == "spmd.rank":
                tags = d.get("tags", {})
                rank = tags.get("rank")
                if rank is None:
                    continue
                end = d.get("end")
                windows.setdefault(d.get("thread"), []).append(
                    (d["start"], end if end is not None else float("inf"), int(rank))
                )

        def rank_of(d: dict) -> int | None:
            seen = 0
            node = d
            while node is not None and seen < 1000:
                rank = node.get("tags", {}).get("rank")
                if rank is not None:
                    return int(rank)
                node = by_id.get(node.get("parent_id"))
                seen += 1
            for lo, hi, rank in windows.get(d.get("thread"), ()):
                if lo <= d["start"] <= hi:
                    return rank
            return None

        per_rank: dict[int, list[dict]] = {}
        sends: list[CommEdge] = []
        for d in spans:
            name = d.get("name", "")
            tags = d.get("tags", {})
            if name == "mpisim.send":
                sends.append(
                    CommEdge(
                        src=int(tags.get("src", -1)),
                        dst=int(tags.get("dst", -1)),
                        bytes=int(tags.get("bytes", 0)),
                        time=d["start"],
                    )
                )
                continue
            end = d.get("end")
            if end is None or end <= d["start"]:
                continue  # instant events and unclosed spans carry no time
            if name in _SCAFFOLD_NAMES:
                continue
            rank = rank_of(d)
            if rank is None:
                continue  # driver-side span outside any rank stream
            per_rank.setdefault(rank, []).append(d)
        if not per_rank:
            names = sorted({d.get("name", "?") for d in spans})
            raise TimelineError(
                f"span stream {stream!r} has no rank-attributable spans "
                f"(saw {len(spans)} spans named {names[:8]}); a cross-rank "
                "timeline needs spans carrying a 'rank' tag or 'spmd.rank' "
                "root spans"
            )

        segments: list[Segment] = []
        for rank, ds in per_rank.items():
            selected_ids = {d["span_id"] for d in ds if d.get("span_id") is not None}
            children: dict = {}
            for d in ds:
                pid = d.get("parent_id")
                if pid in selected_ids:
                    children.setdefault(pid, []).append(d)
            for d in ds:
                kind = classify_segment(d["name"])
                if kind == "wait":
                    # on a modeled clock a collective *is* its receives'
                    # waits: time waited inside a reduction is reduction time
                    node = by_id.get(d.get("parent_id"))
                    while node is not None and node.get("span_id") in selected_ids:
                        if classify_segment(node["name"]) == "reduction":
                            kind = "reduction"
                            break
                        node = by_id.get(node.get("parent_id"))
                tags = d.get("tags", {})
                src = tags.get("src")
                nbytes = int(tags.get("bytes", 0) or 0)
                # self-time: the span's interval minus its children's
                cuts = sorted(
                    (max(c["start"], d["start"]), min(c["end"], d["end"]))
                    for c in children.get(d.get("span_id"), [])
                    if c.get("end") is not None and c["end"] > c["start"]
                )
                cursor = d["start"]
                pieces: list[tuple[float, float]] = []
                for lo, hi in cuts:
                    if lo > cursor:
                        pieces.append((cursor, lo))
                    cursor = max(cursor, hi)
                if d["end"] > cursor:
                    pieces.append((cursor, d["end"]))
                for lo, hi in pieces:
                    segments.append(
                        Segment(
                            rank=rank,
                            name=d["name"],
                            kind=kind,
                            start=lo,
                            end=hi,
                            src=int(src) if src is not None else None,
                            bytes=nbytes,
                        )
                    )
        return cls(segments, edges=sends, meta=meta)

    # aggregate queries -------------------------------------------------
    @property
    def ranks(self) -> list[int]:
        """Sorted rank ids present in the timeline."""
        return sorted({s.rank for s in self.segments})

    @property
    def t0(self) -> float:
        """Earliest timestamp in the timeline."""
        return min((s.start for s in self.segments), default=0.0)

    @property
    def t1(self) -> float:
        """Latest timestamp in the timeline."""
        return max((s.end for s in self.segments), default=0.0)

    @property
    def makespan(self) -> float:
        """Extent of the merged timeline (modeled seconds for a traced run)."""
        return self.t1 - self.t0

    def busy_seconds(self, rank: int | None = None):
        """Total segment time for one rank, or a per-rank mapping."""
        if rank is not None:
            return sum(s.duration for s in self.segments if s.rank == rank)
        out: dict[int, float] = {r: 0.0 for r in self.ranks}
        for s in self.segments:
            out[s.rank] += s.duration
        return out

    def kind_seconds(self, rank: int | None = None) -> dict[str, float]:
        """Busy time decomposed by phase kind (optionally for one rank)."""
        out: dict[str, float] = {}
        for s in self.segments:
            if rank is not None and s.rank != rank:
                continue
            out[s.kind] = out.get(s.kind, 0.0) + s.duration
        return out

    def wait_histogram(self) -> dict[int, float]:
        """Per-rank seconds spent in wait segments — the imbalance that
        dynamic filtering (Alg. 4) is meant to flatten."""
        out: dict[int, float] = {r: 0.0 for r in self.ranks}
        for s in self.segments:
            if s.kind == "wait":
                out[s.rank] += s.duration
        return out

    def slack_seconds(self) -> dict[int, float]:
        """Per-rank idle headroom: makespan minus the rank's busy time."""
        span = self.makespan
        return {r: span - busy for r, busy in self.busy_seconds().items()}

    # critical path -----------------------------------------------------
    def critical_path(self) -> CriticalPath:
        """Longest chain through program order plus message dependencies.

        Same-rank segments chain sequentially; a receive's segment (a halo
        wait, or a hop of a reduction) additionally depends on the
        sender-side segment that produced its matching ``mpisim.send``.  The result's length is therefore at least the
        maximum per-rank busy time.
        """
        if self._critical is not None:
            return self._critical
        segs = self.segments
        if not segs:
            self._critical = CriticalPath()
            return self._critical

        by_rank: dict[int, list[int]] = {}
        for i, s in enumerate(segs):
            by_rank.setdefault(s.rank, []).append(i)
        rank_starts = {
            r: [segs[i].start for i in idxs] for r, idxs in by_rank.items()
        }
        # sends grouped by (src, dst), time-sorted, for wait matching, with
        # each lane's times listed once
        sends: dict[tuple[int, int], list[CommEdge]] = {}
        for e in sorted(self.edges, key=lambda e: e.time):
            sends.setdefault((e.src, e.dst), []).append(e)
        send_times = {lane: [e.time for e in edges] for lane, edges in sends.items()}

        def sender_segment(src: int, t: float) -> int | None:
            """Index of the segment on ``src`` active at (or last before) t."""
            starts = rank_starts.get(src)
            if not starts:
                return None
            k = bisect_right(starts, t) - 1
            return by_rank[src][k] if k >= 0 else None

        order = sorted(range(len(segs)), key=lambda i: (segs[i].end, segs[i].start))
        dist = [0.0] * len(segs)
        parent: list[int | None] = [None] * len(segs)
        via: list[CommEdge | None] = [None] * len(segs)
        pos_in_rank = {i: k for r, idxs in by_rank.items() for k, i in enumerate(idxs)}
        done = [False] * len(segs)
        for i in order:
            seg = segs[i]
            candidates: list[tuple[int, CommEdge | None]] = []
            k = pos_in_rank[i]
            if k > 0:
                candidates.append((by_rank[seg.rank][k - 1], None))
            if seg.src is not None:  # a receive: halo wait or reduction hop
                lane = sends.get((seg.src, seg.rank), [])
                j = bisect_right(send_times.get((seg.src, seg.rank), []), seg.end) - 1
                if j >= 0:
                    edge = lane[j]
                    pred = sender_segment(seg.src, edge.time)
                    if pred is not None and pred != i:
                        candidates.append(
                            (pred, CommEdge(edge.src, edge.dst, edge.bytes,
                                            edge.time, seg.duration))
                        )
            # contribution truncated to the part after the predecessor
            # finished: chained intervals stay pairwise disjoint, so the
            # total can never exceed the makespan
            best = seg.duration
            best_parent: int | None = None
            best_edge: CommEdge | None = None
            for p, edge in candidates:
                if not done[p]:
                    continue
                cand = dist[p] + max(0.0, seg.end - max(seg.start, segs[p].end))
                if cand > best:
                    best, best_parent, best_edge = cand, p, edge
            dist[i] = best
            parent[i] = best_parent
            via[i] = best_edge
            done[i] = True

        tail = max(range(len(segs)), key=lambda i: dist[i])
        path_segments: list[Segment] = []
        path_edges: list[CommEdge] = []
        node: int | None = tail
        while node is not None:
            path_segments.append(segs[node])
            if via[node] is not None:
                path_edges.append(via[node])
            node = parent[node]
        path_segments.reverse()
        path_edges.reverse()
        self._critical = CriticalPath(path_segments, path_edges, dist[tail])
        return self._critical

    # summaries ---------------------------------------------------------
    def summary(self, *, top_k: int = 5) -> dict:
        """The aggregate view embedded in v2 run reports."""
        busy = self.busy_seconds()
        wait = self.wait_histogram()
        cp = self.critical_path()
        return {
            "ranks": len(self.ranks),
            "segments": len(self.segments),
            "makespan_seconds": self.makespan,
            "total_busy_seconds": sum(busy.values()),
            "busy_seconds": {str(r): busy[r] for r in self.ranks},
            "wait_seconds": {str(r): wait[r] for r in self.ranks},
            "slack_seconds": {
                str(r): v for r, v in sorted(self.slack_seconds().items())
            },
            "max_wait_seconds": max(wait.values(), default=0.0),
            "kind_seconds": self.kind_seconds(),
            "critical_path": cp.to_dict(top_k=top_k),
        }

    # persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "format": TIMELINE_FORMAT,
            "version": TIMELINE_VERSION,
            "meta": dict(self.meta),
            "segments": [s.to_dict() for s in self.segments],
            "edges": [e.to_dict() for e in self.edges],
            "summary": self.summary(),
        }

    def save(self, path, *, indent: int | None = 2) -> Path:
        """Write as JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=indent) + "\n")
        return path

    @classmethod
    def from_dict(cls, doc: dict) -> "Timeline":
        """Validate and rebuild the saved document form."""
        if not isinstance(doc, dict):
            raise TimelineError("timeline document must be a JSON object")
        if doc.get("format") != TIMELINE_FORMAT:
            raise TimelineError(
                f"not a timeline document (format={doc.get('format')!r}, "
                f"expected {TIMELINE_FORMAT!r})"
            )
        version = doc.get("version")
        if version != TIMELINE_VERSION:
            raise TimelineError(
                f"unsupported timeline schema version {version!r} "
                f"(this build reads version {TIMELINE_VERSION})"
            )
        try:
            segments = [
                Segment(
                    rank=int(d["rank"]),
                    name=str(d["name"]),
                    kind=str(d.get("kind") or classify_segment(d["name"])),
                    start=float(d["start"]),
                    end=float(d["end"]),
                    src=int(d["src"]) if d.get("src") is not None else None,
                    bytes=int(d.get("bytes", 0)),
                )
                for d in doc.get("segments", [])
            ]
            edges = [
                CommEdge(
                    src=int(d["src"]),
                    dst=int(d["dst"]),
                    bytes=int(d.get("bytes", 0)),
                    time=float(d.get("time", 0.0)),
                    wait_seconds=float(d.get("wait_seconds", 0.0)),
                )
                for d in doc.get("edges", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise TimelineError(f"malformed timeline document: {exc}") from exc
        _validate_durations(segments)
        _validate_monotonic(segments)  # document order is part of the schema
        return cls(segments, edges=edges, meta=doc.get("meta", {}))

    @classmethod
    def load(cls, path) -> "Timeline":
        """Load a saved timeline — or an exported ``repro-trace`` document —
        validating format, version and per-rank monotonicity."""
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise TimelineError(f"cannot read {path}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TimelineError(f"{path} is not valid JSON: {exc}") from exc
        if isinstance(doc, dict) and doc.get("format") == "repro-trace":
            return cls.from_trace_doc(doc, meta={"source": str(path)})
        try:
            return cls.from_dict(doc)
        except TimelineError as exc:
            raise TimelineError(f"{path}: {exc}") from None

    # rendering ---------------------------------------------------------
    def top_ranks(self, n: int | None = None) -> list[int]:
        """The ``n`` ranks with the most wait time, in rank order.

        ``None`` (or a cap at/above the rank count) returns every rank —
        the selector behind Gantt row capping at production rank counts
        (1024 rank rows are unreadable; the waitiest N are the story).
        Ties break toward the lower rank id, so the selection is
        deterministic.
        """
        ranks = self.ranks
        if n is None or n <= 0 or n >= len(ranks):
            return ranks
        wait = self.wait_histogram()
        return sorted(sorted(ranks, key=lambda r: (-wait[r], r))[:n])

    def render_gantt(self, *, width: int = 72, max_ranks: int | None = None) -> str:
        """ASCII per-rank Gantt chart: C compute, P pack, W wait, R reduction.

        ``max_ranks`` caps the chart at the top-N ranks by wait time
        (:meth:`top_ranks`) with a footer naming how many rows were
        elided — the readable form above a few dozen ranks.
        """
        if not self.segments:
            return "(empty timeline)"
        t0, t1 = self.t0, self.t1
        span = max(t1 - t0, 1e-12)
        glyph = {"compute": "C", "pack": "P", "wait": "W", "reduction": "R"}
        shown = self.top_ranks(max_ranks)
        elided = len(self.ranks) - len(shown)
        lines = [
            f"timeline: {len(self.ranks)} ranks, {len(self.segments)} segments, "
            f"makespan {span * 1e3:.3f} ms"
        ]
        busy = self.busy_seconds()
        wait = self.wait_histogram()
        by_rank: dict[int, list] = {r: [] for r in shown}
        for s in self.segments:
            if s.rank in by_rank:
                by_rank[s.rank].append(s)
        for rank in shown:
            buckets = [dict() for _ in range(width)]
            for s in by_rank[rank]:
                lo = int((s.start - t0) / span * width)
                hi = int((s.end - t0) / span * width)
                for k in range(max(lo, 0), min(hi + 1, width)):
                    b_lo = t0 + k * span / width
                    b_hi = b_lo + span / width
                    overlap = min(s.end, b_hi) - max(s.start, b_lo)
                    if overlap > 0:
                        buckets[k][s.kind] = buckets[k].get(s.kind, 0.0) + overlap
            row = "".join(
                glyph.get(max(b, key=b.get), "?") if b else "." for b in buckets
            )
            lines.append(
                f"rank {rank:>2} |{row}| busy {busy[rank] * 1e3:8.3f} ms"
                f"  wait {wait[rank] * 1e3:8.3f} ms"
            )
        if elided:
            lines.append(
                f"({elided} rank{'s' if elided != 1 else ''} elided; showing "
                f"top {len(shown)} by wait time)"
            )
        lines.append("legend: C compute  P halo-pack  W wait  R reduction  . idle")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Timeline(ranks={len(self.ranks)}, segments={len(self.segments)}, "
            f"makespan={self.makespan:.6f}s)"
        )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HaloCriticalPath:
    """The *static* halo critical path of a schedule: the rank with the most
    incoming halo bytes and its ordered incoming edges.

    Derived purely from the schedule — no clocks — so it is exactly
    comparable across preconditioners: FSAIE-Comm must yield a path
    byte-for-byte and edge-for-edge identical to FSAI's (§4).
    """

    rank: int
    edges: tuple[tuple[int, int, int], ...]  # (src, dst, bytes), src-sorted
    total_bytes: int
    messages: int

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "rank": self.rank,
            "edges": [list(e) for e in self.edges],
            "total_bytes": self.total_bytes,
            "messages": self.messages,
        }

    def render(self) -> str:
        """Human-readable text rendering."""
        hops = ", ".join(f"{s}->{d}:{b}B" for s, d, b in self.edges)
        return (
            f"halo critical path: rank {self.rank} receives {self.total_bytes} B "
            f"over {self.messages} message(s) [{hops}]"
        )


def halo_critical_path(schedule, *, value_bytes: int = 8) -> HaloCriticalPath:
    """Bottleneck rank and edge list of a :class:`HaloSchedule`.

    The critical rank is the one receiving the most halo bytes per update
    (ties break to the lowest rank); its incoming edges, source-sorted with
    exact byte counts, form the comparable path object.
    """
    senders, receivers, nbytes = schedule.messages
    sizes = value_bytes * (nbytes // 8)
    incoming = np.bincount(receivers, weights=sizes, minlength=schedule.partition.nparts)
    bottleneck = int(np.argmax(incoming))  # the first maximum: ties go to the lowest rank
    into = receivers == bottleneck
    edges = tuple((q, bottleneck, b) for q, b in zip(senders[into].tolist(), sizes[into].tolist()))
    return HaloCriticalPath(
        rank=int(bottleneck),
        edges=edges,
        total_bytes=sum(b for _, _, b in edges),
        messages=len(edges),
    )
