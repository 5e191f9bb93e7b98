"""Trace-driven set-associative LRU cache simulator.

Substitutes the PAPI ``L1-DCM`` hardware counters of the paper's evaluation
(Figures 3a and 5a): the same quantity — misses of the data cache on accesses
to the SpMV multiplying vector — is measured here by replaying the access
stream through a model of the target CPU's L1D.

The defaults mirror the evaluated machines: 32 KiB, 8-way, 64 B lines for
Skylake/Zen 2 and 64 KiB, 4-way, 256 B lines for A64FX.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CacheConfig", "SetAssociativeCache", "simulate_misses"]

#: Sentinel "no line" value used by the attribution API (line ids are
#: non-negative, so -1 can never collide with a real line).
NO_LINE = -1


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    line_bytes: int
    associativity: int

    def __post_init__(self):
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry fields must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                "size_bytes must be a multiple of line_bytes * associativity"
            )

    @property
    def num_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.line_bytes * self.associativity)

    def scaled(self, factor: int) -> "CacheConfig":
        """Aggregate cache of ``factor`` cores (hybrid MPI+threads configs).

        The paper's §5.3.2 observation — more threads per process means more
        L1 available to the process — is modelled by scaling capacity while
        keeping line size and associativity.
        """
        return CacheConfig(self.size_bytes * factor, self.line_bytes, self.associativity)


class SetAssociativeCache:
    """An LRU set-associative cache over 64-bit word addresses.

    ``access(line_id)`` returns ``True`` on hit.  Lines are identified by
    their global line index (address // line_bytes); set selection uses the
    low bits, true-LRU replacement within the set.  Each set is one Python
    list of resident line ids in recency order (LRU first, MRU last), at
    most ``associativity`` long: a hit moves the line to the tail, a miss
    appends it and, when the set was full, evicts the head.
    """

    __slots__ = ("config", "_sets", "hits", "misses", "listener")

    def __init__(self, config: CacheConfig, *, listener=None):
        self.config = config
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0
        #: Optional attribution hook: called as ``listener(line_id, hit,
        #: evicted)`` on every access, where ``evicted`` is the line id
        #: displaced by the fill (:data:`NO_LINE` on hits and on fills into
        #: empty ways).  Drives the free-ride ledger of
        #: :mod:`repro.observe.memtraffic`.
        self.listener = listener

    def access(self, line_id: int) -> bool:
        """Touch one line; returns True on hit, False on miss (with fill)."""
        return self.access_attributed(line_id)[0]

    def access_attributed(self, line_id: int) -> tuple[bool, int]:
        """Touch one line with eviction attribution.

        Returns ``(hit, evicted)`` where ``evicted`` is the line id displaced
        by the fill, or :data:`NO_LINE` on a hit or a fill into an empty way.
        Notifies :attr:`listener` when one is attached.
        """
        lines = self._sets[line_id % self.config.num_sets]
        hit = line_id in lines
        evicted = NO_LINE
        if hit:
            lines.remove(line_id)
            self.hits += 1
        else:
            if len(lines) == self.config.associativity:
                evicted = lines.pop(0)
            self.misses += 1
        lines.append(line_id)
        if self.listener is not None:
            self.listener(line_id, hit, evicted)
        return hit, evicted

    def access_stream(self, line_ids: np.ndarray) -> int:
        """Replay a whole line-id stream; returns the number of misses.

        The loop runs per access (LRU state is inherently sequential) but
        batches the common fast path: runs of accesses to the *same* line as
        the previous access always hit and are removed vectorially first.
        With a :attr:`listener` attached, the fast path is skipped so the
        hook observes every access individually (immediate repeats are
        reported as hits with no eviction).
        """
        line_ids = np.asarray(line_ids, dtype=np.int64)
        if line_ids.size == 0:
            return 0
        before = self.misses
        if self.listener is not None:
            for lid in line_ids.tolist():
                self.access_attributed(lid)
            return self.misses - before
        # collapse immediate repeats — guaranteed hits, huge fraction of SpMV
        keep = np.empty(line_ids.size, dtype=bool)
        keep[0] = True
        np.not_equal(line_ids[1:], line_ids[:-1], out=keep[1:])
        collapsed = line_ids[keep]
        sets, ns, assoc = self._sets, self.config.num_sets, self.config.associativity
        misses = 0
        for lid in collapsed.tolist():
            lines = sets[lid % ns]
            try:
                lines.remove(lid)  # one scan serves the lookup and the unlink
            except ValueError:
                misses += 1
                if len(lines) == assoc:
                    del lines[0]
            lines.append(lid)
        self.misses += misses
        self.hits += int(line_ids.size) - misses
        return misses

    def resident_lines(self) -> np.ndarray:
        """Snapshot of the line ids currently resident (sorted, no LRU touch)."""
        return np.array(sorted(lid for lines in self._sets for lid in lines), dtype=np.int64)

    def is_resident(self, line_id: int) -> bool:
        """Whether a line is currently cached, without touching LRU state."""
        return line_id in self._sets[line_id % self.config.num_sets]

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (contents stay)."""
        self.hits = 0
        self.misses = 0


def simulate_misses(line_ids: np.ndarray, config: CacheConfig) -> int:
    """Misses of a fresh cache of ``config`` over the given line-id stream.

    With instrumentation enabled, cumulative ``cachesim.hits`` /
    ``cachesim.misses`` counters and last-run gauges are published to the
    active metrics registry (:mod:`repro.instrument`).
    """
    from repro.instrument import get_metrics

    cache = SetAssociativeCache(config)
    misses = cache.access_stream(line_ids)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("cachesim.hits").inc(cache.hits)
        metrics.counter("cachesim.misses").inc(cache.misses)
        metrics.gauge("cachesim.hit_rate").set(
            cache.hits / max(cache.hits + cache.misses, 1)
        )
    return misses
