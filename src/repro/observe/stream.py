"""Bounded-memory streaming telemetry for production-rank-count SPMD runs.

:class:`~repro.observe.timeline.Timeline` merges every rank's full span
stream centrally — perfect forensics at 8 ranks, hopeless at 1024 (trace
volume grows as O(ranks x iterations x edges)).  This module is the
scalable counterpart: every rank keeps a *fixed-size* telemetry summary and
the cluster-wide view is reduced **in-band** over the simulator's own
O(log P) binomial tree instead of a P-way central gather.

Per rank (:class:`RankTelemetry`):

* log-bucketed :class:`StreamingHistogram` distributions for halo-wait,
  collective-wait, compute, reduction and message-size observations —
  O(log(range)) buckets regardless of how many values stream through;
* plain counters (messages, bytes);
* full span recording only on a deterministic sampled subset of ranks
  (:func:`sampled_ranks`, the ``rank_sample=`` policy), bounded by
  ``max_spans``.

The artifact size is therefore O(sampled ranks + log-bucket count), not
O(P x spans) — sublinear in rank count versus full tracing, which
``scripts/check_bench.py conformance`` gates explicitly.

Aggregation (:func:`aggregate_telemetry`) merges :class:`ClusterTelemetry`
partials up a binomial tree on a dedicated tag while the communicator's
*telemetry channel* is active: the transport books that traffic as
``telemetry_*`` accounting in :class:`~repro.mpisim.CommTracker`, **not**
as ``p2p_*`` traffic, so :func:`repro.observe.compare_snapshots` excludes
it by construction and the solver's communication schedule stays provably
unperturbed (the paper's §4 invariance claim survives with telemetry on).

Every duration here is in *modeled* seconds: the transport and the rank
programs report differences of ``comm.now()`` readings and pass the reading
itself as ``end=``, so sampled spans sit on the run's one modeled time axis
and nothing in this module reads the host's clock.

Layering: this module is import-light (stdlib + :mod:`repro.errors` only)
so the :mod:`repro.mpisim` engine can use it through the duck-typed
``telemetry=`` hook of :func:`repro.mpisim.run_spmd` without a cycle.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "TELEMETRY_TAG",
    "TelemetryError",
    "StreamingHistogram",
    "sampled_ranks",
    "classify_wait_tag",
    "RankTelemetry",
    "ClusterTelemetry",
    "TelemetryConfig",
    "aggregate_telemetry",
]

#: Message tag reserved for in-band telemetry aggregation.  Collectives use
#: the 1_000_00x range and halos 7_000; telemetry stays far above both so a
#: stray ``ANY_TAG`` receive in solver code can never match it by accident.
TELEMETRY_TAG = 9_000_000

#: Tags at or above this value belong to collective algorithms
#: (:mod:`repro.mpisim.collectives`); below it is point-to-point solver
#: traffic (halo exchanges).  Used to classify blocked-receive time.
_COLLECTIVE_TAG_FLOOR = 1_000_000


class TelemetryError(ReproError):
    """Invalid telemetry configuration or an unmergeable histogram pair."""


def classify_wait_tag(tag: int) -> str:
    """Histogram name for a blocked receive, from the message tag it
    matched on: halo-range tags are ``wait.halo``, collective-range tags
    ``wait.collective``."""
    return "wait.collective" if int(tag) >= _COLLECTIVE_TAG_FLOOR else "wait.halo"


def sampled_ranks(size: int, policy=4) -> frozenset[int]:
    """Deterministic subset of ranks that record full spans.

    Policies (all pure functions of ``(size, policy)`` — the same ladder
    always samples the same ranks):

    * ``None`` / ``0`` / ``"none"`` — sample nothing;
    * ``"all"`` — every rank;
    * an integer ``k`` — ``k`` ranks spread evenly (``(i * size) // k``);
    * ``"first:K"`` — ranks ``0..K-1``;
    * ``"stride:K"`` — every K-th rank;
    * ``"sqrt"`` — ``ceil(sqrt(size))`` ranks spread evenly.
    """
    if policy in (None, 0, "none", "0"):
        return frozenset()
    if policy == "all":
        return frozenset(range(size))
    if isinstance(policy, str):
        kind, _, arg = policy.partition(":")
        if kind == "first":
            return frozenset(range(min(int(arg or 1), size)))
        if kind == "stride":
            return frozenset(range(0, size, max(int(arg or 1), 1)))
        if kind == "sqrt":
            k = int(math.ceil(math.sqrt(size)))
        else:
            try:
                k = int(policy)
            except ValueError:
                raise TelemetryError(
                    f"unknown rank_sample policy {policy!r}; expected an int, "
                    "'none', 'all', 'sqrt', 'first:K' or 'stride:K'"
                ) from None
    else:
        k = int(policy)
    k = max(1, min(k, size))
    return frozenset((i * size) // k for i in range(k))


class StreamingHistogram:
    """A log-bucketed streaming histogram with O(log(range)) memory.

    Values land in buckets whose upper bounds are ``lo * base**i`` — the
    classic HdrHistogram/Prometheus-exponential shape — so a million
    observations cost the same few dozen integers as ten.  Two histograms
    with the same ``(lo, base)`` grid merge exactly (counts add), which is
    what lets partial histograms ride the reduction tree.

    ``to_samples`` exports the OpenMetrics histogram family (cumulative
    ``_bucket{le=...}`` plus ``_count`` / ``_sum``) and
    :meth:`from_exposition` reads it back — the pair round-trips
    byte-identically through :func:`repro.observe.prom.render_openmetrics`
    and :func:`~repro.observe.prom.parse_exposition`.
    """

    __slots__ = ("lo", "base", "count", "sum", "min", "max", "buckets")

    def __init__(self, *, lo: float = 1e-9, base: float = 2.0):
        if not lo > 0 or not base > 1.0:
            raise TelemetryError(
                f"histogram needs lo > 0 and base > 1 (got lo={lo}, base={base})"
            )
        self.lo = float(lo)
        self.base = float(base)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: Non-cumulative counts keyed by bucket upper bound.
        self.buckets: dict[float, int] = {}

    def _bound(self, value: float) -> float:
        """Upper bound of the bucket containing ``value``."""
        if value <= self.lo:
            return self.lo
        # the epsilon forgives float noise when value is an exact power
        exponent = math.ceil(math.log(value / self.lo) / math.log(self.base) - 1e-9)
        return self.lo * self.base ** exponent

    def observe(self, value) -> None:
        """Stream one observation in (O(1) time, bounded memory)."""
        v = float(value)
        self.count += 1
        self.sum += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        ub = self._bound(v)
        self.buckets[ub] = self.buckets.get(ub, 0) + 1

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold ``other`` into this histogram (same grid required)."""
        if (other.lo, other.base) != (self.lo, self.base):
            raise TelemetryError(
                f"cannot merge histograms on different grids: "
                f"(lo={self.lo}, base={self.base}) vs "
                f"(lo={other.lo}, base={other.base})"
            )
        self.count += other.count
        self.sum += other.sum
        for bound in (other.min, other.max):
            if bound is None:
                continue
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        for ub, n in other.buckets.items():
            self.buckets[ub] = self.buckets.get(ub, 0) + n
        return self

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile: the upper bound of the bucket where
        the cumulative count crosses ``q`` (an overestimate by at most one
        bucket width)."""
        if self.count == 0:
            return 0.0
        target = max(q, 0.0) / 100.0 * self.count
        cumulative = 0
        last = self.lo
        for ub in sorted(self.buckets):
            cumulative += self.buckets[ub]
            last = ub
            if cumulative >= target:
                return ub
        return last

    @property
    def mean(self) -> float:
        """Arithmetic mean of the streamed observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    # persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form (bucket bounds as repr strings)."""
        return {
            "lo": self.lo,
            "base": self.base,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {repr(ub): n for ub, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StreamingHistogram":
        hist = cls(lo=d.get("lo", 1e-9), base=d.get("base", 2.0))
        hist.count = int(d.get("count", 0))
        hist.sum = float(d.get("sum", 0.0))
        hist.min = None if d.get("min") is None else float(d["min"])
        hist.max = None if d.get("max") is None else float(d["max"])
        hist.buckets = {float(k): int(v) for k, v in d.get("buckets", {}).items()}
        return hist

    # OpenMetrics -------------------------------------------------------
    def to_samples(self, name: str, *, tags: dict | None = None) -> list[dict]:
        """One ``collect()``-style instrument dict carrying the bucket family
        (consumed by :func:`repro.observe.prom.render_openmetrics`)."""
        cumulative: dict[float, int] = {}
        running = 0
        for ub in sorted(self.buckets):
            running += self.buckets[ub]
            cumulative[ub] = running
        return [
            {
                "kind": "histogram",
                "name": name,
                "tags": dict(tags or {}),
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "buckets": cumulative,
            }
        ]

    @classmethod
    def from_exposition(
        cls,
        parsed: dict,
        name: str,
        *,
        labels: tuple = (),
        lo: float = 1e-9,
        base: float = 2.0,
    ) -> "StreamingHistogram":
        """Rebuild from :func:`repro.observe.prom.parse_exposition` output.

        ``name`` is the *sanitised* metric name (e.g. ``repro_wait_halo``);
        ``labels`` the sorted label items identifying one series.  The
        result re-exports byte-identically when the original grid matched
        ``(lo, base)``.
        """
        labels = tuple(sorted(labels))
        hist = cls(lo=lo, base=base)
        entries = []
        for labelset, value in parsed.get(f"{name}_bucket", {}).items():
            rest = dict(labelset)
            le = rest.pop("le", None)
            if le is None or tuple(sorted(rest.items())) != labels:
                continue
            if le == "+Inf":
                continue
            entries.append((float(le), value))
        entries.sort()
        previous = 0.0
        for ub, cumulative in entries:
            n = int(round(cumulative - previous))
            previous = cumulative
            if n > 0:
                hist.buckets[ub] = n
        def scalar(suffix: str):
            return parsed.get(f"{name}{suffix}", {}).get(labels)
        hist.count = int(scalar("_count") or 0)
        hist.sum = float(scalar("_sum") or 0.0)
        mn, mx = scalar("_min"), scalar("_max")
        hist.min = None if mn is None else float(mn)
        hist.max = None if mx is None else float(mx)
        return hist

    def __repr__(self) -> str:
        return (
            f"StreamingHistogram(count={self.count}, sum={self.sum:.6g}, "
            f"buckets={len(self.buckets)})"
        )


class RankTelemetry:
    """One rank's fixed-size telemetry: histograms, counters, sampled spans.

    Fed by the transport (blocked-receive time via :meth:`observe_wait`,
    message sizes via :meth:`observe_message`) and by the solver layers
    (``compute`` / ``reduction`` seconds via :meth:`observe`).  On a
    sampled rank every timed observation is additionally recorded as a
    ``(name, start, end, src)`` span, bounded by ``max_spans`` (overflow is
    counted, never grown).
    """

    __slots__ = ("rank", "sampled", "lo", "base", "max_spans", "hists",
                 "counters", "spans", "spans_dropped")

    def __init__(self, rank: int, *, sampled: bool = False, lo: float = 1e-9,
                 base: float = 2.0, max_spans: int = 256):
        self.rank = int(rank)
        self.sampled = bool(sampled)
        self.lo = float(lo)
        self.base = float(base)
        self.max_spans = int(max_spans)
        self.hists: dict[str, StreamingHistogram] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.spans_dropped = 0

    def hist(self, name: str) -> StreamingHistogram:
        """The named histogram, created on first use (shared grid)."""
        h = self.hists.get(name)
        if h is None:
            h = self.hists[name] = StreamingHistogram(lo=self.lo, base=self.base)
        return h

    def observe(self, name: str, seconds, *, end: float = 0.0,
                src: int | None = None) -> None:
        """Stream one timed observation (``compute``, ``reduction``, ...)
        that ended at modeled instant ``end`` (the rank's ``comm.now()``)."""
        seconds = float(seconds)
        self.hist(name).observe(seconds)
        if self.sampled:
            if len(self.spans) < self.max_spans:
                self.spans.append((name, end - seconds, end, src))
            else:
                self.spans_dropped += 1

    def observe_wait(self, seconds, *, tag: int = 0, end: float = 0.0,
                     src: int | None = None) -> None:
        """Modeled time a receive waited, classified by the tag it matched on."""
        self.observe(classify_wait_tag(tag), seconds, end=end, src=src)

    def observe_message(self, nbytes: int) -> None:
        """One delivered wire message of ``nbytes``."""
        self.hist("message_bytes").observe(nbytes)
        self.counters["messages"] = self.counters.get("messages", 0) + 1
        self.counters["bytes"] = self.counters.get("bytes", 0) + int(nbytes)

    def total(self, name: str) -> float:
        """Sum of the named histogram's observations (0.0 when absent)."""
        h = self.hists.get(name)
        return h.sum if h is not None else 0.0

    def __repr__(self) -> str:
        return (
            f"RankTelemetry(rank={self.rank}, sampled={self.sampled}, "
            f"hists={sorted(self.hists)})"
        )


@dataclass
class ClusterTelemetry:
    """Mergeable cluster-wide aggregate of per-rank telemetry.

    The merge operator is associative and commutative, so partials combine
    identically regardless of tree shape:

    * ``hists`` — observation-level histograms merged across ranks;
    * ``rank_wait`` / ``rank_busy`` — per-*rank* distributions (each rank
      contributes exactly one observation: its halo-wait / compute total),
      the input to robust straggler detection;
    * ``top_wait`` — the ``top_k`` worst (rank, halo-wait-seconds) pairs,
      kept bounded under merge so straggler ranks stay *nameable* without
      shipping a P-length vector;
    * ``sampled`` — full span lists from the sampled ranks only.
    """

    ranks: int = 0
    hists: dict = field(default_factory=dict)
    rank_wait: StreamingHistogram = field(default_factory=StreamingHistogram)
    rank_busy: StreamingHistogram = field(default_factory=StreamingHistogram)
    top_wait: list = field(default_factory=list)
    sampled: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    top_k: int = 8

    @classmethod
    def from_rank(cls, telemetry: RankTelemetry, *, top_k: int = 8) -> "ClusterTelemetry":
        """Lift one rank's telemetry into a single-rank aggregate."""
        cluster = cls(
            ranks=1,
            hists={name: h for name, h in telemetry.hists.items()},
            rank_wait=StreamingHistogram(lo=telemetry.lo, base=telemetry.base),
            rank_busy=StreamingHistogram(lo=telemetry.lo, base=telemetry.base),
            counters=dict(telemetry.counters),
            top_k=int(top_k),
        )
        wait_total = telemetry.total("wait.halo")
        cluster.rank_wait.observe(wait_total)
        cluster.rank_busy.observe(telemetry.total("compute"))
        cluster.top_wait = [(telemetry.rank, wait_total)]
        if telemetry.sampled:
            cluster.sampled[telemetry.rank] = {
                "spans": [list(s) for s in telemetry.spans],
                "dropped": telemetry.spans_dropped,
            }
        return cluster

    def merge(self, other: "ClusterTelemetry") -> "ClusterTelemetry":
        """Fold another partial aggregate into this one."""
        self.ranks += other.ranks
        for name, h in other.hists.items():
            mine = self.hists.get(name)
            if mine is None:
                self.hists[name] = h
            else:
                mine.merge(h)
        self.rank_wait.merge(other.rank_wait)
        self.rank_busy.merge(other.rank_busy)
        merged = sorted(
            self.top_wait + other.top_wait, key=lambda rw: (-rw[1], rw[0])
        )
        self.top_wait = merged[: self.top_k]
        self.sampled.update(other.sampled)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        return self

    # analysis ----------------------------------------------------------
    def phase_seconds(self) -> dict[str, float]:
        """Cluster-total seconds per phase: compute, halo wait, reduction."""
        return {
            "compute": self.hists["compute"].sum if "compute" in self.hists else 0.0,
            "halo": self.hists["wait.halo"].sum if "wait.halo" in self.hists else 0.0,
            "reduction": self.hists["reduction"].sum if "reduction" in self.hists else 0.0,
        }

    def straggler_ranks(self, *, z_threshold: float = 3.5) -> list[dict]:
        """Straggler detection via robust z-scores over the per-rank wait
        distribution.

        The median and a percentile-estimated MAD come from the streamed
        ``rank_wait`` histogram (so the statistics cost O(buckets), not
        O(P)); candidates are the bounded ``top_wait`` list.  A rank is a
        straggler when its robust z-score ``0.6745 * (w - median) / MAD``
        clears ``z_threshold`` *and* its wait is at least twice the median
        (the guard absorbs bucket-granularity noise when all ranks share a
        bucket and the MAD estimate collapses)."""
        if self.rank_wait.count == 0:
            return []
        median = self.rank_wait.percentile(50)
        spread = self.rank_wait.percentile(75) - self.rank_wait.percentile(25)
        mad = max(spread / 1.349, 1e-12)
        out = []
        for rank, wait in self.top_wait:
            z = 0.6745 * (wait - median) / mad
            if z >= z_threshold and wait > 2.0 * median:
                out.append({"rank": int(rank), "wait_seconds": float(wait),
                            "z": float(z)})
        return out

    def payload_bytes(self) -> int:
        """Serialized size of this aggregate — the number the sublinearity
        gate compares against full-trace volume."""
        return len(json.dumps(self.to_dict(), separators=(",", ":")))

    # persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "ranks": self.ranks,
            "top_k": self.top_k,
            "counters": dict(self.counters),
            "hists": {name: h.to_dict() for name, h in sorted(self.hists.items())},
            "rank_wait": self.rank_wait.to_dict(),
            "rank_busy": self.rank_busy.to_dict(),
            "top_wait": [[int(r), float(w)] for r, w in self.top_wait],
            "sampled": {str(r): entry for r, entry in sorted(self.sampled.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClusterTelemetry":
        return cls(
            ranks=int(d.get("ranks", 0)),
            hists={name: StreamingHistogram.from_dict(h)
                   for name, h in d.get("hists", {}).items()},
            rank_wait=StreamingHistogram.from_dict(d.get("rank_wait", {})),
            rank_busy=StreamingHistogram.from_dict(d.get("rank_busy", {})),
            top_wait=[(int(r), float(w)) for r, w in d.get("top_wait", [])],
            sampled={int(r): entry for r, entry in d.get("sampled", {}).items()},
            counters=dict(d.get("counters", {})),
            top_k=int(d.get("top_k", 8)),
        )

    def to_prom_samples(self, *, prefix: str = "telemetry") -> list[dict]:
        """Every histogram as OpenMetrics histogram-family instruments plus
        the counters as counter samples."""
        samples: list[dict] = [
            {"kind": "gauge", "name": f"{prefix}.ranks", "tags": {},
             "value": self.ranks},
        ]
        for name, value in sorted(self.counters.items()):
            samples.append({"kind": "counter", "name": f"{prefix}.{name}",
                            "tags": {}, "value": value})
        for name in sorted(self.hists):
            samples.extend(self.hists[name].to_samples(f"{prefix}.{name}"))
        samples.extend(self.rank_wait.to_samples(f"{prefix}.rank_wait_seconds"))
        samples.extend(self.rank_busy.to_samples(f"{prefix}.rank_busy_seconds"))
        return samples


@dataclass
class TelemetryConfig:
    """Configuration + result slot for one telemetered SPMD run.

    Pass to :func:`repro.mpisim.run_spmd` (or the solver wrappers in
    :mod:`repro.dist.spmd`) as ``telemetry=``; after the run, ``result``
    holds the in-band-reduced :class:`ClusterTelemetry` from rank 0::

        cfg = TelemetryConfig(rank_sample=8)
        spmd_pipelined_pcg(da, b, ..., telemetry=cfg, clock=machine.clock_model())
        cfg.result.phase_seconds()       # simulated per-phase totals
    """

    rank_sample: int | str | None = 4
    lo: float = 1e-9
    base: float = 2.0
    top_k: int = 8
    max_spans: int = 256
    result: ClusterTelemetry | None = field(default=None, repr=False, compare=False)
    _sampled_cache: tuple | None = field(default=None, repr=False, compare=False)

    def sampled(self, size: int) -> frozenset[int]:
        """The deterministic sampled-rank set for ``size`` ranks."""
        if self._sampled_cache is None or self._sampled_cache[0] != size:
            self._sampled_cache = (size, sampled_ranks(size, self.rank_sample))
        return self._sampled_cache[1]

    def make_rank(self, rank: int, size: int) -> RankTelemetry:
        """Build one rank's telemetry endpoint (engine hook)."""
        return RankTelemetry(
            rank,
            sampled=rank in self.sampled(size),
            lo=self.lo,
            base=self.base,
            max_spans=self.max_spans,
        )

    async def collect(self, comm, telemetry: RankTelemetry) -> None:
        """Aggregate in-band after the rank program returns (engine hook)."""
        aggregate = await aggregate_telemetry(comm, telemetry, top_k=self.top_k)
        if aggregate is not None:
            self.result = aggregate


@contextmanager
def _channel(comm):
    """The communicator's telemetry channel, tolerating bare test doubles."""
    channel = getattr(comm, "telemetry_channel", None)
    if channel is None:
        yield comm
        return
    with channel():
        yield comm


async def aggregate_telemetry(comm, telemetry, *, top_k: int = 8):
    """Reduce per-rank telemetry to rank 0 over a binomial tree (a
    coroutine: it receives, so rank programs ``await`` it).

    The same O(log P) pattern as :func:`repro.mpisim.collectives.reduce`,
    but on :data:`TELEMETRY_TAG` and inside the communicator's telemetry
    channel, so every hop is booked as telemetry traffic (excluded from the
    invariance audit) rather than solver traffic.  Returns the merged
    :class:`ClusterTelemetry` on rank 0 and ``None`` elsewhere.

    ``telemetry`` may be a :class:`RankTelemetry` (lifted automatically) or
    an already-partial :class:`ClusterTelemetry`.
    """
    if isinstance(telemetry, RankTelemetry):
        accumulator = ClusterTelemetry.from_rank(telemetry, top_k=top_k)
    else:
        accumulator = telemetry
    size = getattr(comm, "size", 1)
    rank = getattr(comm, "rank", 0)
    if size <= 1:
        return accumulator
    with _channel(comm):
        mask = 1
        while mask < size:
            if rank & mask:
                comm.send(accumulator.to_dict(), rank & ~mask, TELEMETRY_TAG)
                return None
            peer = rank | mask
            if peer < size:
                partial = ClusterTelemetry.from_dict(
                    await comm.recv(peer, TELEMETRY_TAG)
                )
                accumulator.merge(partial)
            mask <<= 1
    return accumulator
