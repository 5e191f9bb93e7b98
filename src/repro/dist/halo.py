"""Halo (ghost-cell) exchange schedules for row-distributed sparse matrices.

Terminology follows the paper (§3): rows owned by a rank are its *local
unknowns*; off-rank unknowns coupled to them are *halo unknowns*.  Before a
distributed SpMV, every rank must receive the current values of its halo
unknowns from their owners — the *halo update*.

:class:`HaloSchedule` captures exactly which values move between which ranks,
and is therefore the object on which the paper's communication-invariance
guarantee is stated: FSAIE-Comm must produce an extended matrix whose halo
schedule **equals** the original one (for both ``G`` and ``Gᵀ``).
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.dist.partition_map import RowPartition
from repro.errors import CommError, PartitionError, RankFailedError
from repro.instrument import get_metrics, get_tracer
from repro.mpisim.injection import get_injector
from repro.mpisim.tracker import CommTracker

__all__ = ["HaloSchedule"]

#: Tag halo messages are accounted under (mirrors ``repro.dist.spmd``).
_TAG_HALO = 7_000


class HaloSchedule:
    """Per-rank halo exchange lists derived from a matrix pattern.

    Stored as every rank's halo columns in one array (:attr:`halo_columns`,
    rank ``p``'s at :attr:`halo_offsets` ``[p] : [p + 1]``); the per-rank
    lists below are views of it, built on first access — only the
    per-message update paths and the rank programs read them.

    Attributes
    ----------
    halo_columns:
        Every rank's halo columns in one array, rank after rank.
    halo_offsets:
        ``halo_offsets[p]`` — where rank ``p``'s halo starts in
        :attr:`halo_columns`, and in the one buffer holding every rank's
        halo (``nparts + 1`` entries).
    ext_cols:
        ``ext_cols[p]`` — ascending global column ids referenced by rank
        ``p``'s rows but owned elsewhere.  The local SpMV input vector on
        ``p`` is ``[x_local | x_halo]`` with the halo section in this order.
    recv_from:
        ``recv_from[p][q]`` — ascending global ids owned by ``q`` that ``p``
        receives (a sub-list of ``ext_cols[p]``).
    send_to:
        ``send_to[p][q]`` — ascending global ids owned by ``p`` that ``p``
        sends to ``q`` (mirror of ``recv_from[q][p]``).
    recv_pos:
        ``recv_pos[p][q]`` — positions of ``recv_from[p][q]`` inside
        ``ext_cols[p]`` (where received values land in the halo buffer).
    recv_src:
        ``recv_src[p][q]`` — local indices on ``q`` of ``recv_from[p][q]``.
    """

    __slots__ = ("partition", "halo_columns", "halo_offsets", "_ext", "_lists",
                 "_messages", "_source", "__weakref__")

    def __init__(self, partition: RowPartition, ext_cols: list[np.ndarray]):
        nparts = partition.nparts
        if len(ext_cols) != nparts:
            raise PartitionError("need one ext-column list per rank")
        ext_cols = [np.asarray(c, dtype=np.int64) for c in ext_cols]
        sizes = [c.size for c in ext_cols]
        offsets = np.zeros(nparts + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        # every rank's halo columns in one array, rank after rank
        cols = np.concatenate([np.empty(0, dtype=np.int64), *ext_cols])
        rank = np.repeat(np.arange(nparts, dtype=np.int64), sizes)
        owners = partition.owner[cols]
        # the first bad rank, with the checks in the order a rank runs them
        unsorted = rank[1:][(rank[1:] == rank[:-1]) & (cols[1:] <= cols[:-1])]
        owned = rank[owners == rank]
        if unsorted.size and (not owned.size or unsorted[0] <= owned[0]):
            raise PartitionError(f"rank {unsorted[0]}: ext_cols must be strictly increasing")
        if owned.size:
            raise PartitionError(f"rank {owned[0]}: ext_cols contains owned columns")
        self._init(partition, cols, offsets)

    def _init(self, partition: RowPartition, cols: np.ndarray, offsets: np.ndarray) -> None:
        self.partition = partition
        self.halo_columns, self.halo_offsets = cols, offsets
        # built on first use: most schedules (set-up, invariance checks)
        # never run an update, and keeping small arrays from here raised
        # the filter sweep's peak RSS (docs/PERFORMANCE.md)
        self._ext: list[np.ndarray] | None = None
        self._lists: tuple | None = None
        self._messages: tuple | None = None
        self._source: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_row_structure(
        cls, partition: RowPartition, indptr: np.ndarray, indices: np.ndarray
    ) -> "HaloSchedule":
        """Build from the global CSR structure of a matrix distributed by rows."""
        return cls._from_entries(partition, indptr, indices)[0]

    @classmethod
    def _from_entries(cls, partition: RowPartition, indptr: np.ndarray, indices: np.ndarray):
        """:meth:`from_row_structure`, plus what distributing the entries
        needs: ``(schedule, halo, halo_rank, halo_pos)`` — ``halo`` the
        off-rank entries' positions in ``indices``, ``halo_rank`` the rank
        owning each one's row and ``halo_pos`` its column's position in that
        rank's ``ext_cols``."""
        nparts, n = partition.nparts, partition.nrows
        # rank ids in the narrowest unsigned type: the passes over every
        # entry move one or two bytes an entry, not eight
        owner = partition.owner.astype(np.min_scalar_type(max(nparts - 1, 0)))
        row_rank = np.repeat(owner, np.diff(indptr))
        halo = np.flatnonzero(row_rank != owner[indices])
        halo_rank = row_rank[halo].astype(np.int64)
        # every off-rank entry as one (owning rank of its row, column) key;
        # sorted unique keys fall into per-rank runs of ascending columns
        keys, slot = np.unique(halo_rank * n + indices[halo], return_inverse=True)
        bounds = np.searchsorted(keys, np.arange(nparts + 1, dtype=np.int64) * n)
        keys -= np.repeat(np.arange(nparts, dtype=np.int64) * n, np.diff(bounds))
        schedule = cls.__new__(cls)
        schedule._init(partition, keys, bounds)
        return schedule, halo, halo_rank, slot - bounds[halo_rank]

    @classmethod
    def from_pattern(cls, pattern, partition: RowPartition) -> "HaloSchedule":
        """Build from a :class:`SparsityPattern` or :class:`CSRMatrix`."""
        return cls.from_row_structure(partition, pattern.indptr, pattern.indices)

    # ------------------------------------------------------------------
    @property
    def ext_cols(self) -> list[np.ndarray]:
        """``ext_cols[p]``: rank ``p``'s halo columns, a view of
        :attr:`halo_columns`."""
        if self._ext is None:
            bounds = self.halo_offsets.tolist()
            self._ext = [self.halo_columns[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        return self._ext

    @property
    def recv_from(self) -> list[dict[int, np.ndarray]]:
        """``recv_from[p][q]``: the ids ``p`` receives from ``q``."""
        return self._message_lists()[0]

    @property
    def recv_pos(self) -> list[dict[int, np.ndarray]]:
        """``recv_pos[p][q]``: where they land in ``ext_cols[p]``."""
        return self._message_lists()[1]

    @property
    def recv_src(self) -> list[dict[int, np.ndarray]]:
        """``recv_src[p][q]``: their local indices on ``q``."""
        return self._message_lists()[2]

    @property
    def send_to(self) -> list[dict[int, np.ndarray]]:
        """``send_to[p][q]``: the ids ``p`` sends to ``q``."""
        return self._message_lists()[3]

    def _message_lists(self) -> tuple:
        """``(recv_from, recv_pos, recv_src, send_to)``, built once: one dict
        entry per message, each value a view of one array."""
        if self._lists is None:
            nparts, cols, offsets = self.partition.nparts, self.halo_columns, self.halo_offsets
            rank = np.repeat(np.arange(nparts, dtype=np.int64), np.diff(offsets))
            owners = self.partition.owner[cols]
            # one message per (receiver, sender) pair: a stable sort by pair
            # keeps each message's columns ascending, and receivers, then
            # senders, in ascending order — the order every dict is filled in
            pair = rank * nparts + owners
            order = np.argsort(pair, kind="stable")
            pair = pair[order]
            ids = cols[order]
            # where each value lands in its receiver's halo buffer, and where
            # it sits on its sender
            pos = (np.arange(cols.size) - offsets[rank])[order]
            src = self.partition.local_index[ids]
            first = np.flatnonzero(np.diff(pair, prepend=-1))
            bounds = [*first.tolist(), pair.size]
            lists = tuple([{} for _ in range(nparts)] for _ in range(4))
            recv_from, recv_pos, recv_src, send_to = lists
            heads = order[first]
            for p, q, lo, hi in zip(rank[heads].tolist(), owners[heads].tolist(),
                                    bounds, bounds[1:]):
                recv_from[p][q] = send_to[q][p] = ids[lo:hi]
                recv_pos[p][q] = pos[lo:hi]
                recv_src[p][q] = src[lo:hi]
            self._lists = lists
        return self._lists

    @property
    def messages(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(senders, receivers, nbytes)``: every message of one update, by
        receiver, then sender — the order :meth:`update` delivers them in."""
        if self._messages is None:
            nparts = self.partition.nparts
            rank = np.repeat(np.arange(nparts, dtype=np.int64), np.diff(self.halo_offsets))
            pair, count = np.unique(rank * nparts + self.partition.owner[self.halo_columns],
                                    return_counts=True)
            self._messages = pair % nparts, pair // nparts, 8 * count
        return self._messages

    def _source_positions(self) -> np.ndarray:
        """For every position of the one-buffer halo, the position of its
        value in a :class:`~repro.dist.vector.DistVector`'s rank-ordered
        ``values``."""
        if self._source is None:
            part, ext = self.partition, self.halo_columns
            row_offsets = np.zeros(part.nparts + 1, dtype=np.int64)
            np.cumsum(part.sizes(), out=row_offsets[1:])
            self._source = row_offsets[part.owner[ext]] + part.local_index[ext]
        return self._source

    def send_sizes(self) -> np.ndarray:
        """Number of halo values each rank packs and sends per update."""
        senders, _, nbytes = self.messages
        sent = np.bincount(senders, weights=nbytes, minlength=self.partition.nparts)
        return (sent // 8).astype(np.int64)

    def halo_size(self, rank: int) -> int:
        """Number of halo values the rank receives per update."""
        return int(self.halo_offsets[rank + 1] - self.halo_offsets[rank])

    def edges(self) -> set[tuple[int, int]]:
        """Directed (sender, receiver) pairs with non-empty exchanges."""
        senders, receivers, _ = self.messages
        return set(zip(senders.tolist(), receivers.tolist()))

    def total_halo_values(self) -> int:
        """Total values moved per halo update (sum over all messages)."""
        return int(self.halo_offsets[-1])

    def neighbour_counts(self) -> np.ndarray:
        """Per-rank number of neighbours it receives from."""
        return np.bincount(self.messages[1], minlength=self.partition.nparts)

    # ------------------------------------------------------------------
    def update(
        self,
        x_parts: list[np.ndarray],
        tracker: CommTracker | None = None,
        out: list[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Bulk-synchronous halo update: return per-rank halo buffers.

        ``x_parts[p]`` holds rank ``p``'s local values in local order.  Each
        exchanged message is recorded in ``tracker`` (8 bytes per value).

        ``out`` supplies preallocated receive buffers (one per rank, each of
        length ``halo_size(p)``), making the update allocation-free.
        Received values cover every halo position, so the buffers need no
        zeroing.  Without ``out``, fresh buffers are allocated and counted in
        the ``kernels.allocs`` metric.

        With tracing enabled, the update emits a ``halo.update`` span with
        one ``halo.exchange`` child per receiving rank (tagged ``rank`` and
        ``bytes``, matching the tracker's accounting exactly) wrapping
        ``halo.pack`` / ``halo.unpack`` children per message.

        With metrics enabled, every message also increments per-sender-rank
        ``halo.bytes_sent`` / ``halo.msgs`` counters — identically with and
        without ``out=``, so the invariance auditor sees the same accounting
        whichever kernel called.
        """
        tracer = get_tracer()
        injector = get_injector()
        if tracer.enabled or injector is not None:
            return self._update_traced(x_parts, tracker, tracer, out, injector)
        halos = self._recv_buffers(out)
        for p, by_owner in enumerate(self.recv_from):
            for q in by_owner:
                halos[p][self.recv_pos[p][q]] = x_parts[q][self.recv_src[p][q]]
        self._book(tracker)
        return halos

    def gather(self, x, halo: np.ndarray, tracker: CommTracker | None = None) -> None:
        """Halo update into one buffer: every rank's halo, rank after rank.

        ``x`` is a :class:`~repro.dist.vector.DistVector`; ``halo`` has
        :attr:`halo_offsets` ``[-1]`` entries.  The update is one gather from
        ``x.values`` — no Python per rank or per message — and books every
        message exactly as :meth:`update` does.  Traced and fault-injected
        runs take :meth:`update`'s per-message path into per-rank views of
        ``halo`` instead, so spans, retries and bit-flips still act message
        by message.
        """
        tracer = get_tracer()
        injector = get_injector()
        if tracer.enabled or injector is not None:
            bounds = self.halo_offsets.tolist()
            views = [halo[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            self._update_traced(x.parts, tracker, tracer, views, injector)
            return
        # indices are in range by construction; "clip" skips the buffered
        # copy NumPy makes of ``out`` under the default bounds check
        src = self._source if self._source is not None else self._source_positions()
        x.values.take(src, out=halo, mode="clip")
        self._book(tracker)

    def _book(self, tracker: CommTracker | None) -> None:
        """Account one untraced update: tracker and per-sender metrics."""
        metrics = get_metrics()
        if tracker is None and not metrics.enabled:
            return
        senders, receivers, nbytes = (self._messages if self._messages is not None
                                      else self.messages)
        senders, nbytes = senders.tolist(), nbytes.tolist()
        if tracker is not None:
            tracker.merge_p2p_many(senders, receivers.tolist(), repeat(1), nbytes)
        if metrics.enabled:
            for q, n in zip(senders, nbytes):
                metrics.counter("halo.bytes_sent", rank=q).inc(n)
                metrics.counter("halo.msgs", rank=q).inc()

    def _recv_buffers(self, out: list[np.ndarray] | None) -> list[np.ndarray]:
        """Validate supplied receive buffers, or allocate (and count) fresh ones.

        Supplied buffers must be float64 — halo values are packed with plain
        slice assignment, and a float32 buffer would silently truncate every
        received value, so a dtype mismatch raises :class:`ValueError`
        instead.
        """
        nparts = self.partition.nparts
        if out is not None:
            if len(out) != nparts:
                raise PartitionError("need one halo receive buffer per rank")
            for p, buf in enumerate(out):
                if buf.shape != (self.ext_cols[p].size,):
                    raise PartitionError(
                        f"rank {p}: halo buffer has shape {buf.shape}, expected "
                        f"({self.ext_cols[p].size},)"
                    )
                if buf.dtype != np.float64:
                    raise ValueError(
                        f"rank {p}: halo buffer has dtype {buf.dtype}; halo "
                        "values are float64 and unpacking would silently cast "
                        "— allocate the buffer as float64"
                    )
            return out
        get_metrics().counter("kernels.allocs").inc(nparts)
        return [np.zeros(self.ext_cols[p].size, dtype=np.float64) for p in range(nparts)]

    def _update_traced(
        self,
        x_parts: list[np.ndarray],
        tracker: CommTracker | None,
        tracer,
        out: list[np.ndarray] | None = None,
        injector=None,
    ) -> list[np.ndarray]:
        """The :meth:`update` loop with per-rank spans and byte accounting.

        Also the fault-injected path: with an installed injector each
        message runs through :meth:`_deliver_injected` (drop → retry with
        backoff, delay, bit-flip) and each rank's stall/failure faults are
        applied on entry to its exchange.
        """
        part = self.partition
        metrics = get_metrics()
        halos = self._recv_buffers(out)
        if injector is not None:
            injector.begin_update()
        total_bytes = 0
        with tracer.span("halo.update", ranks=part.nparts):
            for p in range(part.nparts):
                if injector is not None:
                    self._apply_rank_faults(injector, tracer, metrics, p)
                rank_bytes = 8 * sum(int(ids.size) for ids in self.recv_from[p].values())
                total_bytes += rank_bytes
                with tracer.span("halo.exchange", rank=p, bytes=rank_bytes,
                                 neighbours=len(self.recv_from[p])):
                    for q, ids in self.recv_from[p].items():
                        if ids.size == 0:
                            continue
                        nbytes = 8 * int(ids.size)
                        with tracer.span("halo.pack", src=q, dst=p, bytes=nbytes):
                            values = x_parts[q][self.recv_src[p][q]]
                        if injector is not None:
                            values = self._deliver_injected(
                                injector, tracer, metrics, q, p, values
                            )
                        with tracer.span("halo.unpack", src=q, dst=p, bytes=nbytes):
                            halos[p][self.recv_pos[p][q]] = values
                        if tracker is not None:
                            tracker.record_p2p(q, p, nbytes)
                        if metrics.enabled:
                            metrics.counter("halo.bytes_sent", rank=q).inc(nbytes)
                            metrics.counter("halo.msgs", rank=q).inc()
        metrics.counter("halo.updates").inc()
        metrics.counter("halo.bytes").inc(total_bytes)
        return halos

    @staticmethod
    def _apply_rank_faults(injector, tracer, metrics, rank: int) -> None:
        """Raise on permanent failure; serve any pending transient stall."""
        if injector.rank_failed(rank):
            raise RankFailedError(rank)
        seconds = injector.consume_stall(rank)
        if seconds > 0:
            metrics.counter("resilience.stalls").inc()
            with tracer.span("resilience.stall", rank=rank, seconds=seconds):
                injector.sleep(seconds)

    @staticmethod
    def _deliver_injected(injector, tracer, metrics, src: int, dst: int, values):
        """Run one halo message through the installed fault plan.

        Models a reliable transport over a lossy channel: a dropped
        message — or one delayed past ``plan.message_timeout`` — costs a
        retry (``halo.retries``) with linear backoff; exhausting
        ``plan.max_retries`` counts a ``halo.timeouts`` and raises
        :class:`~repro.errors.CommError`.  Sub-timeout delays sleep (capped
        by the plan); bit-flips corrupt the delivered copy.
        """
        if injector.rank_failed(src):
            raise RankFailedError(src)
        plan = injector.plan
        attempts = 0
        while True:
            verdict = injector.message_verdict(src, dst, _TAG_HALO)
            if verdict.dropped or verdict.delay_s > plan.message_timeout:
                attempts += 1
                injector.record_retry()
                metrics.counter("halo.retries", rank=dst).inc()
                tracer.event(
                    "resilience.retry",
                    src=src,
                    dst=dst,
                    attempt=attempts,
                    cause="drop" if verdict.dropped else "timeout",
                )
                if attempts > plan.max_retries:
                    metrics.counter("halo.timeouts", rank=dst).inc()
                    raise CommError(
                        f"halo message {src}->{dst} lost {attempts} times "
                        f"(max_retries={plan.max_retries}); giving up"
                    )
                with tracer.span("resilience.backoff", src=src, dst=dst,
                                 attempt=attempts):
                    injector.sleep(plan.backoff * attempts)
                continue
            break
        if verdict.delay_s > 0:
            with tracer.span("resilience.delay", src=src, dst=dst,
                             seconds=verdict.delay_s):
                injector.sleep(verdict.delay_s)
        if verdict.flip_bit is not None:
            values = injector.corrupt(values, verdict)
            metrics.counter("resilience.bitflips").inc()
            tracer.event("resilience.bitflip", src=src, dst=dst, bit=verdict.flip_bit)
        return values

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, HaloSchedule):
            return NotImplemented
        if self.partition != other.partition:
            return False
        return np.array_equal(self.halo_offsets, other.halo_offsets) and np.array_equal(
            self.halo_columns, other.halo_columns)

    def __hash__(self):
        raise TypeError("HaloSchedule is unhashable")

    def __repr__(self) -> str:
        return (
            f"HaloSchedule(nparts={self.partition.nparts}, "
            f"total_halo={self.total_halo_values()}, edges={len(self.edges())})"
        )
