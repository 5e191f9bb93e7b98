"""Communication accounting for the simulated MPI runtime.

The paper's central claim is that FSAIE-Comm extensions leave the
communication scheme *unchanged*.  The tracker gives that claim a measurable
form: every point-to-point message and every collective is recorded, so
benchmarks can assert byte-for-byte identical traffic between the FSAI and
FSAIE-Comm solves.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass, field
from itertools import repeat
from operator import add

import numpy as np

from repro.errors import CommError

__all__ = ["CommTracker", "payload_nbytes"]


def payload_nbytes(obj) -> int:
    """Wire size of a message payload in bytes.

    Arrays and scalars are sized exactly; everything else falls back to its
    pickled size (what a real MPI layer would ship for a Python object).  An
    unpicklable payload raises :class:`~repro.errors.CommError` — silently
    counting it as 0 bytes would undercount traffic and break the
    byte-for-byte communication-invariance checks the benchmarks rely on.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (tuple, list)) and all(
        isinstance(x, (int, float, np.integer, np.floating)) for x in obj
    ):
        return 8 * len(obj)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:
        raise CommError(
            f"cannot size message payload of type {type(obj).__name__}: "
            f"payload is not picklable ({exc!r})"
        ) from exc


@dataclass
class CommTracker:
    """Thread-safe counters of point-to-point and collective traffic.

    Telemetry aggregation (:mod:`repro.observe.stream`) is booked on a
    *separate* channel — ``telemetry_messages`` / ``telemetry_bytes`` via
    :meth:`record_telemetry` — so observability traffic never pollutes the
    solver's ``p2p_*`` accounting.  The invariance auditor
    (:func:`repro.observe.audit.compare_snapshots`) only normalises the
    solver keys, which is what lets the paper's schedule-unchanged claim be
    re-proved with telemetry enabled.
    """

    p2p_messages: dict[tuple[int, int], int] = field(default_factory=dict)
    p2p_bytes: dict[tuple[int, int], int] = field(default_factory=dict)
    collective_calls: dict[str, int] = field(default_factory=dict)
    collective_bytes: dict[str, int] = field(default_factory=dict)
    telemetry_messages: dict[tuple[int, int], int] = field(default_factory=dict)
    telemetry_bytes: dict[tuple[int, int], int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_p2p(self, src: int, dst: int, nbytes: int) -> None:
        """Count one point-to-point message of ``nbytes``."""
        key = (int(src), int(dst))
        with self._lock:
            self.p2p_messages[key] = self.p2p_messages.get(key, 0) + 1
            self.p2p_bytes[key] = self.p2p_bytes.get(key, 0) + int(nbytes)

    def merge_p2p_many(self, srcs, dsts, messages, nbytes) -> None:
        """Add ``messages[i]`` messages of ``nbytes[i]`` bytes in all on
        edge ``(srcs[i], dsts[i])``, edge after edge (iterables of ints) —
        a whole halo update or a whole clocked run under one lock, with no
        Python per edge: ``dict.update`` takes each sum from the iterator as
        it is made, so a repeated edge adds to its own earlier sum, and the
        edges enter in their order."""
        keys = list(zip(srcs, dsts))
        with self._lock:
            for table, values in ((self.p2p_messages, messages), (self.p2p_bytes, nbytes)):
                table.update(zip(keys, map(add, map(table.get, keys, repeat(0)), values)))

    def merge_p2p(self, src: int, edges: dict[int, list[int]]) -> None:
        """Add one sender's per-destination ``[messages, bytes]`` totals.

        The SPMD engine counts each rank's messages without a lock while
        the run is on one thread and books them here, once per rank, when
        the run ends (runs on other threads may share this tracker)."""
        with self._lock:
            for dst, (messages, nbytes) in edges.items():
                key = (src, dst)
                self.p2p_messages[key] = self.p2p_messages.get(key, 0) + messages
                self.p2p_bytes[key] = self.p2p_bytes.get(key, 0) + nbytes

    def record_telemetry(self, src: int, dst: int, nbytes: int) -> None:
        """Count one telemetry message of ``nbytes`` — kept out of
        the solver's point-to-point accounting by design."""
        key = (int(src), int(dst))
        with self._lock:
            self.telemetry_messages[key] = self.telemetry_messages.get(key, 0) + 1
            self.telemetry_bytes[key] = self.telemetry_bytes.get(key, 0) + int(nbytes)

    def record_collective(self, name: str, nbytes: int) -> None:
        """Count one collective operation of ``nbytes``."""
        with self._lock:
            self.collective_calls[name] = self.collective_calls.get(name, 0) + 1
            self.collective_bytes[name] = self.collective_bytes.get(name, 0) + int(nbytes)

    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        """All point-to-point messages recorded."""
        return sum(self.p2p_messages.values())

    @property
    def total_bytes(self) -> int:
        """All point-to-point bytes recorded."""
        return sum(self.p2p_bytes.values())

    @property
    def total_telemetry_messages(self) -> int:
        """All telemetry messages recorded."""
        return sum(self.telemetry_messages.values())

    @property
    def total_telemetry_bytes(self) -> int:
        """All telemetry bytes recorded."""
        return sum(self.telemetry_bytes.values())

    def edges(self) -> set[tuple[int, int]]:
        """The set of (src, dst) pairs that exchanged at least one message."""
        return {k for k, v in self.p2p_messages.items() if v > 0}

    def reset(self) -> None:
        """Clear every counter."""
        with self._lock:
            self.p2p_messages.clear()
            self.p2p_bytes.clear()
            self.collective_calls.clear()
            self.collective_bytes.clear()
            self.telemetry_messages.clear()
            self.telemetry_bytes.clear()

    def snapshot(self) -> dict:
        """A plain-dict copy suitable for comparison/serialisation.

        The ``telemetry_*`` keys ride along for reporting but are ignored
        by :func:`repro.observe.audit.compare_snapshots`, which normalises
        only the solver-traffic keys.
        """
        with self._lock:
            return {
                "p2p_messages": dict(self.p2p_messages),
                "p2p_bytes": dict(self.p2p_bytes),
                "collective_calls": dict(self.collective_calls),
                "collective_bytes": dict(self.collective_bytes),
                "telemetry_messages": dict(self.telemetry_messages),
                "telemetry_bytes": dict(self.telemetry_bytes),
            }

    def same_edges(self, other: "CommTracker") -> bool:
        """True when both trackers saw the same communication graph."""
        return self.edges() == other.edges()

    def same_bytes(self, other: "CommTracker") -> bool:
        """True when both trackers saw identical per-edge p2p byte counts.

        Strictly stronger than :meth:`same_edges` — the byte-for-byte form of
        the paper's invariance claim.  The auditor
        (:func:`repro.observe.audit.compare_snapshots`) reports *which* edges
        differ when this is False.
        """
        return self.edge_bytes() == other.edge_bytes()

    def edge_bytes(self, edge: tuple[int, int] | None = None):
        """Bytes per directed edge: all of them (dict), or one edge's total."""
        with self._lock:
            if edge is not None:
                return self.p2p_bytes.get((int(edge[0]), int(edge[1])), 0)
            return {k: v for k, v in self.p2p_bytes.items() if v > 0}
