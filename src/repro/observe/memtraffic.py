"""Per-cache-line memory-traffic attribution: the free-ride ledger.

The paper's core mechanism (§1, Figures 3a/5a) is that FSAIE/FSAIE-Comm
extension entries are *nearly free* because their ``x``-operands live in
cache lines the baseline FSAI pattern already touched.  :mod:`repro.cachesim`
measures that only as an aggregate miss count; this module attributes it
line by line.  Replaying the ``Gᵀ(Gx)`` access stream with the simulator's
attribution hooks (:meth:`repro.cachesim.SetAssociativeCache
.access_attributed`), every access of every stored entry is classified by
*entry category* — ``base`` (in the baseline pattern), ``ext_local`` (local
extension), ``ext_halo`` (halo extension) — and every extension access
becomes either a **free ride** (hit: the line was already resident) or a
**new fill** (miss).  The products are:

* :class:`RankLedger` — one rank's category-split access/hit counters,
  fill attribution (rides on base-filled vs extension-filled lines) and
  reuse-distance :class:`~repro.observe.stream.StreamingHistogram` s;
* :class:`FreeRideLedger` — the versioned per-method document aggregating
  all ranks, with free-ride fractions split by local/halo extension and
  misses-per-nnz (the Figure 3a/5a normalisation);
* :class:`CacheConformance` — ledgers for a method ladder at one or more
  line geometries confronted with the :mod:`repro.perfmodel` memory term,
  rendered as gated **claims** (free-ride majority, 64 B → 256 B rise,
  misses-per-nnz not worse than FSAI) and named divergence **verdicts**
  that plug into :func:`repro.observe.explain.attribute` — mirroring the
  α–β conformance shape of :mod:`repro.observe.conformance`.

Layering: import-light (stdlib, :mod:`repro.errors`, sibling observe
modules).  The replay itself lives in
:func:`repro.cachesim.precond_x_misses_per_rank` (``ledger=`` mode), which
imports *this* module lazily — observe never imports cachesim or core.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.observe.explain import Suspect
from repro.observe.stream import StreamingHistogram

__all__ = [
    "MEMTRAFFIC_FORMAT",
    "MEMTRAFFIC_VERSION",
    "CACHE_CONFORMANCE_FORMAT",
    "CACHE_CONFORMANCE_VERSION",
    "CATEGORIES",
    "MemTrafficError",
    "RankLedger",
    "FreeRideLedger",
    "MethodCacheProfile",
    "CacheConformance",
    "ledger_samples",
    "cache_conformance_samples",
]

MEMTRAFFIC_FORMAT = "repro-memtraffic"
MEMTRAFFIC_VERSION = 1
CACHE_CONFORMANCE_FORMAT = "repro-cache-conformance"
CACHE_CONFORMANCE_VERSION = 1

#: Entry categories of a stored entry's ``x``-operand access, in the code
#: order used by :func:`repro.cachesim.spmv_trace.entry_categories`: in the
#: baseline FSAI pattern / extension on a locally-owned column / extension on
#: a halo column.
CATEGORIES = ("base", "ext_local", "ext_halo")

#: The extension subset of :data:`CATEGORIES`.
EXT_CATEGORIES = ("ext_local", "ext_halo")

#: Reuse-distance histograms count accesses, so the grid starts at one
#: access of distance and grows by powers of two.
_REUSE_GRID = {"lo": 1.0, "base": 2.0}


class MemTrafficError(ReproError):
    """Malformed memory-traffic document or inconsistent ledger data."""


def _check_category(category: str) -> str:
    if category not in CATEGORIES:
        raise MemTrafficError(
            f"unknown entry category {category!r}; expected one of {CATEGORIES}"
        )
    return category


@dataclass
class RankLedger:
    """One rank's per-category cache-line attribution counters.

    Fed by the attributed replay of the rank's ``Gᵀ(Gx)`` access stream:
    :meth:`record` takes one access at a time with its entry category, the
    hit/miss outcome, the category that *filled* the line currently serving
    it, and the reuse distance (accesses since the line was last touched,
    ``None`` on first touch).
    """

    rank: int
    accesses: dict = field(default_factory=dict)
    hits: dict = field(default_factory=dict)
    #: Extension hits on lines whose current residency was caused by a
    #: baseline-pattern access — the paper's free-ride mechanism verbatim.
    rides_on_base: int = 0
    #: Extension hits on lines filled by another extension access.
    rides_on_ext: int = 0
    #: Category → reuse-distance histogram (log-bucketed, base 2).
    reuse: dict = field(default_factory=dict)

    def record(
        self,
        category: str,
        hit: bool,
        filled_by: str | None,
        reuse_distance: int | None,
    ) -> None:
        """Stream one attributed access into the ledger."""
        _check_category(category)
        self.accesses[category] = self.accesses.get(category, 0) + 1
        if hit:
            self.hits[category] = self.hits.get(category, 0) + 1
            if category in EXT_CATEGORIES:
                if filled_by in EXT_CATEGORIES:
                    self.rides_on_ext += 1
                else:
                    self.rides_on_base += 1
        if reuse_distance is not None:
            hist = self.reuse.get(category)
            if hist is None:
                hist = self.reuse[category] = StreamingHistogram(**_REUSE_GRID)
            hist.observe(reuse_distance)

    # derived -----------------------------------------------------------
    @property
    def accesses_total(self) -> int:
        """All recorded accesses, every category."""
        return sum(self.accesses.values())

    @property
    def misses_total(self) -> int:
        """All recorded misses (equals the cache's miss counter)."""
        return self.accesses_total - sum(self.hits.values())

    @property
    def ext_accesses(self) -> int:
        """Accesses of extension entries (local + halo)."""
        return sum(self.accesses.get(c, 0) for c in EXT_CATEGORIES)

    @property
    def free_rides(self) -> int:
        """Extension accesses that hit an already-resident line."""
        return sum(self.hits.get(c, 0) for c in EXT_CATEGORIES)

    def category_fraction(self, category: str) -> float:
        """Hit fraction of one category (0.0 when it had no accesses)."""
        n = self.accesses.get(_check_category(category), 0)
        return self.hits.get(category, 0) / n if n else 0.0

    # persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "rank": self.rank,
            "accesses": {c: int(n) for c, n in sorted(self.accesses.items())},
            "hits": {c: int(n) for c, n in sorted(self.hits.items())},
            "rides_on_base": int(self.rides_on_base),
            "rides_on_ext": int(self.rides_on_ext),
            "reuse": {c: h.to_dict() for c, h in sorted(self.reuse.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RankLedger":
        return cls(
            rank=int(d["rank"]),
            accesses={str(c): int(n) for c, n in d.get("accesses", {}).items()},
            hits={str(c): int(n) for c, n in d.get("hits", {}).items()},
            rides_on_base=int(d.get("rides_on_base", 0)),
            rides_on_ext=int(d.get("rides_on_ext", 0)),
            reuse={
                str(c): StreamingHistogram.from_dict(h)
                for c, h in d.get("reuse", {}).items()
            },
        )


@dataclass
class FreeRideLedger:
    """Versioned per-method free-ride document over all ranks.

    ``base_g`` / ``base_gt`` optionally carry the *global* baseline-pattern
    CSR matrices used by the attributed replay to classify entries; they
    are working state for :func:`repro.cachesim.precond_x_misses_per_rank`
    and are **not** serialised.
    """

    method: str
    line_bytes: int
    nnz: int = 0
    base_nnz: int = 0
    ranks: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    base_g: object = field(default=None, repr=False, compare=False)
    base_gt: object = field(default=None, repr=False, compare=False)

    def add_rank(self, ledger: RankLedger) -> None:
        """Append one rank's attribution counters."""
        self.ranks.append(ledger)

    # aggregates --------------------------------------------------------
    def _sum(self, attr: str) -> int:
        return sum(getattr(r, attr) for r in self.ranks)

    @property
    def accesses_total(self) -> int:
        """All ``x`` accesses across ranks."""
        return self._sum("accesses_total")

    @property
    def misses_total(self) -> int:
        """All ``x`` misses across ranks (the Figure 3a/5a numerator)."""
        return self._sum("misses_total")

    @property
    def ext_accesses(self) -> int:
        """Extension-entry accesses across ranks."""
        return self._sum("ext_accesses")

    @property
    def free_rides(self) -> int:
        """Extension accesses served by already-resident lines."""
        return self._sum("free_rides")

    @property
    def rides_on_base(self) -> int:
        """Free rides on lines filled by baseline-pattern accesses."""
        return self._sum("rides_on_base")

    @property
    def rides_on_ext(self) -> int:
        """Free rides on lines filled by other extension accesses."""
        return self._sum("rides_on_ext")

    @property
    def free_ride_fraction(self) -> float:
        """Fraction of extension accesses that were free rides."""
        n = self.ext_accesses
        return self.free_rides / n if n else 0.0

    def _category_fraction(self, category: str) -> float:
        acc = sum(r.accesses.get(category, 0) for r in self.ranks)
        hit = sum(r.hits.get(category, 0) for r in self.ranks)
        return hit / acc if acc else 0.0

    @property
    def free_ride_fraction_local(self) -> float:
        """Free-ride fraction of the *local* extension entries."""
        return self._category_fraction("ext_local")

    @property
    def free_ride_fraction_halo(self) -> float:
        """Free-ride fraction of the *halo* extension entries."""
        return self._category_fraction("ext_halo")

    @property
    def misses_per_nnz(self) -> float:
        """Mean per-rank misses over nnz(G) — Figure 3a/5a's y-axis."""
        if not self.ranks or not self.nnz:
            return 0.0
        return self.misses_total / len(self.ranks) / self.nnz

    def reuse_histogram(self, category: str) -> StreamingHistogram:
        """Cluster-wide reuse-distance histogram of one category."""
        _check_category(category)
        merged = StreamingHistogram(**_REUSE_GRID)
        for r in self.ranks:
            hist = r.reuse.get(category)
            if hist is not None:
                merged.merge(hist)
        return merged

    def summary(self) -> dict:
        """Flat aggregate numbers (bench/report consumption)."""
        return {
            "method": self.method,
            "line_bytes": self.line_bytes,
            "nnz": self.nnz,
            "base_nnz": self.base_nnz,
            "ranks": len(self.ranks),
            "accesses": self.accesses_total,
            "misses": self.misses_total,
            "misses_per_nnz": self.misses_per_nnz,
            "ext_accesses": self.ext_accesses,
            "free_rides": self.free_rides,
            "free_ride_fraction": self.free_ride_fraction,
            "free_ride_fraction_local": self.free_ride_fraction_local,
            "free_ride_fraction_halo": self.free_ride_fraction_halo,
            "rides_on_base": self.rides_on_base,
            "rides_on_ext": self.rides_on_ext,
        }

    # rendering ---------------------------------------------------------
    def render(self) -> str:
        """Human-readable per-rank table plus the aggregate line."""
        lines = [
            f"free-ride ledger — {self.method} @ {self.line_bytes} B lines "
            f"({self.nnz} nnz, {len(self.ranks)} rank(s))"
        ]
        header = (
            f"{'rank':>6} {'accesses':>10} {'misses':>8} {'ext':>8} "
            f"{'free':>8} {'free %':>7} {'on-base':>8} {'on-ext':>7}"
        )
        lines += ["", header, "-" * len(header)]
        for r in sorted(self.ranks, key=lambda r: r.rank):
            n = r.ext_accesses
            pct = 100.0 * r.free_rides / n if n else 0.0
            lines.append(
                f"{r.rank:>6} {r.accesses_total:>10} {r.misses_total:>8} "
                f"{n:>8} {r.free_rides:>8} {pct:>6.1f}% "
                f"{r.rides_on_base:>8} {r.rides_on_ext:>7}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'all':>6} {self.accesses_total:>10} {self.misses_total:>8} "
            f"{self.ext_accesses:>8} {self.free_rides:>8} "
            f"{100.0 * self.free_ride_fraction:>6.1f}% "
            f"{self.rides_on_base:>8} {self.rides_on_ext:>7}"
        )
        lines.append(
            f"local ext {100.0 * self.free_ride_fraction_local:.1f}% free / "
            f"halo ext {100.0 * self.free_ride_fraction_halo:.1f}% free; "
            f"misses/nnz {self.misses_per_nnz:.4f}"
        )
        return "\n".join(lines)

    # persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """Versioned JSON-serialisable document."""
        return {
            "format": MEMTRAFFIC_FORMAT,
            "version": MEMTRAFFIC_VERSION,
            "meta": dict(self.meta),
            "summary": self.summary(),
            "ranks": [r.to_dict() for r in sorted(self.ranks, key=lambda r: r.rank)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FreeRideLedger":
        if d.get("format") != MEMTRAFFIC_FORMAT:
            raise MemTrafficError(
                f"not a memtraffic document (format={d.get('format')!r})"
            )
        if int(d.get("version", 0)) > MEMTRAFFIC_VERSION:
            raise MemTrafficError(
                f"memtraffic document version {d.get('version')} is newer "
                f"than supported ({MEMTRAFFIC_VERSION})"
            )
        summary = d.get("summary", {})
        return cls(
            method=str(summary.get("method", "?")),
            line_bytes=int(summary.get("line_bytes", 0)),
            nnz=int(summary.get("nnz", 0)),
            base_nnz=int(summary.get("base_nnz", 0)),
            ranks=[RankLedger.from_dict(r) for r in d.get("ranks", [])],
            meta=dict(d.get("meta", {})),
        )

    def save(self, path) -> Path:
        """Write the versioned document; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "FreeRideLedger":
        """Read a document written by :meth:`save`."""
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise MemTrafficError(f"cannot read free-ride ledger: {exc}") from exc
        return cls.from_dict(doc)


@dataclass
class MethodCacheProfile:
    """One (method, line geometry) cell of a :class:`CacheConformance`."""

    method: str
    line_bytes: int
    nnz: int = 0
    base_nnz: int = 0
    misses_total: int = 0
    ranks: int = 1
    ext_accesses: int = 0
    free_rides: int = 0
    free_ride_fraction_local: float = 0.0
    free_ride_fraction_halo: float = 0.0
    rides_on_base: int = 0
    rides_on_ext: int = 0
    #: Modeled ``x``-read stream bytes of the perfmodel memory term
    #: (:meth:`repro.perfmodel.CostModel.precond_x_read_bytes`, summed over
    #: ranks); 0.0 when the model was not consulted.
    modeled_x_bytes: float = 0.0

    @classmethod
    def from_ledger(
        cls, ledger: FreeRideLedger, *, modeled_x_bytes: float = 0.0
    ) -> "MethodCacheProfile":
        """Collapse a full ledger into one conformance cell."""
        return cls(
            method=ledger.method,
            line_bytes=ledger.line_bytes,
            nnz=ledger.nnz,
            base_nnz=ledger.base_nnz,
            misses_total=ledger.misses_total,
            ranks=max(len(ledger.ranks), 1),
            ext_accesses=ledger.ext_accesses,
            free_rides=ledger.free_rides,
            free_ride_fraction_local=ledger.free_ride_fraction_local,
            free_ride_fraction_halo=ledger.free_ride_fraction_halo,
            rides_on_base=ledger.rides_on_base,
            rides_on_ext=ledger.rides_on_ext,
            modeled_x_bytes=float(modeled_x_bytes),
        )

    @property
    def free_ride_fraction(self) -> float:
        """Fraction of extension accesses that were free rides."""
        return self.free_rides / self.ext_accesses if self.ext_accesses else 0.0

    @property
    def misses_per_nnz(self) -> float:
        """Mean per-rank misses over nnz(G) — Figure 3a/5a's y-axis."""
        if not self.nnz:
            return 0.0
        return self.misses_total / self.ranks / self.nnz

    @property
    def measured_miss_bytes(self) -> float:
        """Cachesim-measured fill traffic: misses × line size."""
        return float(self.misses_total) * self.line_bytes

    @property
    def model_ratio(self) -> float:
        """measured fill bytes / modeled ``x``-read bytes (0.0 when the
        model term is absent)."""
        if self.modeled_x_bytes <= 0:
            return 0.0
        return self.measured_miss_bytes / self.modeled_x_bytes

    def to_dict(self) -> dict:
        """JSON-serialisable form (derived values included for readers)."""
        return {
            "method": self.method,
            "line_bytes": self.line_bytes,
            "nnz": self.nnz,
            "base_nnz": self.base_nnz,
            "misses_total": self.misses_total,
            "ranks": self.ranks,
            "ext_accesses": self.ext_accesses,
            "free_rides": self.free_rides,
            "free_ride_fraction": self.free_ride_fraction,
            "free_ride_fraction_local": self.free_ride_fraction_local,
            "free_ride_fraction_halo": self.free_ride_fraction_halo,
            "rides_on_base": self.rides_on_base,
            "rides_on_ext": self.rides_on_ext,
            "modeled_x_bytes": self.modeled_x_bytes,
            "measured_miss_bytes": self.measured_miss_bytes,
            "misses_per_nnz": self.misses_per_nnz,
            "model_ratio": self.model_ratio,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MethodCacheProfile":
        return cls(
            method=str(d["method"]),
            line_bytes=int(d["line_bytes"]),
            nnz=int(d.get("nnz", 0)),
            base_nnz=int(d.get("base_nnz", 0)),
            misses_total=int(d.get("misses_total", 0)),
            ranks=int(d.get("ranks", 1)),
            ext_accesses=int(d.get("ext_accesses", 0)),
            free_rides=int(d.get("free_rides", 0)),
            free_ride_fraction_local=float(d.get("free_ride_fraction_local", 0.0)),
            free_ride_fraction_halo=float(d.get("free_ride_fraction_halo", 0.0)),
            rides_on_base=int(d.get("rides_on_base", 0)),
            rides_on_ext=int(d.get("rides_on_ext", 0)),
            modeled_x_bytes=float(d.get("modeled_x_bytes", 0.0)),
        )


@dataclass
class CacheConformance:
    """Cache-conformance verdicts over a method ladder × line geometries.

    Mirrors :class:`repro.observe.conformance.ConformanceReport` for the
    memory side of the perfmodel: :meth:`claims` states the paper's three
    gated cache facts as pass/fail records, :meth:`verdicts` names every
    divergence, and :meth:`to_suspects` lifts the verdicts into
    :func:`repro.observe.explain.attribute` suspects
    (``cache:<verdict>``).
    """

    entries: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    baseline: str = "FSAI"

    #: An extended method's free-ride fraction at or above this is a
    #: "majority" (the paper's nearly-free claim).
    majority_threshold: float = 0.5
    #: Allowed relative misses-per-nnz growth of an extended method over
    #: the baseline before ``misses-per-nnz-regressed`` fires.
    miss_tolerance: float = 0.05
    #: ``memory-term-underpredicted`` fires when measured fill bytes exceed
    #: this multiple of the modeled ``x``-read bytes.
    model_tolerance: float = 1.0
    #: A free-ride fraction at or above this counts as saturated: the
    #: "larger lines ⇒ larger gains" claim cannot fail for lack of headroom
    #: when the smaller geometry already rides (essentially) every access.
    saturation_threshold: float = 0.995

    def add(self, profile: MethodCacheProfile) -> None:
        """Append one (method, line geometry) cell."""
        self.entries.append(profile)

    def add_ledger(
        self, ledger: FreeRideLedger, *, modeled_x_bytes: float = 0.0
    ) -> MethodCacheProfile:
        """Collapse and append a ledger; returns the stored profile."""
        profile = MethodCacheProfile.from_ledger(
            ledger, modeled_x_bytes=modeled_x_bytes
        )
        self.add(profile)
        return profile

    # lookup ------------------------------------------------------------
    def profile(self, method: str, line_bytes: int) -> MethodCacheProfile | None:
        """The cell of one (method, line geometry), or None."""
        for e in self.entries:
            if e.method == method and e.line_bytes == int(line_bytes):
                return e
        return None

    def methods(self) -> list[str]:
        """Method names in first-seen order."""
        out: list[str] = []
        for e in self.entries:
            if e.method not in out:
                out.append(e.method)
        return out

    def line_sizes(self) -> list[int]:
        """Distinct line geometries, ascending."""
        return sorted({e.line_bytes for e in self.entries})

    def _extended(self) -> list[MethodCacheProfile]:
        return [e for e in self.entries if e.method != self.baseline]

    # judgement ---------------------------------------------------------
    def claims(self) -> list[dict]:
        """The paper's gated cache facts as pass/fail records.

        Per extended method: ``free-ride-majority`` at each line geometry,
        ``misses-per-nnz-not-worse`` vs the baseline at the same geometry,
        and ``free-ride-rises-with-line-size`` across geometries (the A64FX
        "larger lines ⇒ larger gains" claim) when at least two geometries
        were profiled.
        """
        out: list[dict] = []
        for e in self._extended():
            if not e.ext_accesses:
                continue
            out.append({
                "claim": "free-ride-majority",
                "method": e.method,
                "line_bytes": e.line_bytes,
                "ok": e.free_ride_fraction >= self.majority_threshold,
                "detail": (
                    f"{e.free_rides}/{e.ext_accesses} extension accesses "
                    f"({e.free_ride_fraction:.1%}) rode resident lines at "
                    f"{e.line_bytes} B (threshold "
                    f"{self.majority_threshold:.0%})"
                ),
            })
            base = self.profile(self.baseline, e.line_bytes)
            if base is not None and base.misses_per_nnz > 0:
                limit = (1 + self.miss_tolerance) * base.misses_per_nnz
                out.append({
                    "claim": "misses-per-nnz-not-worse",
                    "method": e.method,
                    "line_bytes": e.line_bytes,
                    "ok": e.misses_per_nnz <= limit,
                    "detail": (
                        f"misses/nnz {e.misses_per_nnz:.4f} vs "
                        f"{self.baseline} {base.misses_per_nnz:.4f} at "
                        f"{e.line_bytes} B (allowed ≤ {limit:.4f})"
                    ),
                })
        for method in self.methods():
            if method == self.baseline:
                continue
            cells = sorted(
                (e for e in self._extended()
                 if e.method == method and e.ext_accesses),
                key=lambda e: e.line_bytes,
            )
            if len(cells) < 2:
                continue
            lo, hi = cells[0], cells[-1]
            saturated = lo.free_ride_fraction >= self.saturation_threshold
            out.append({
                "claim": "free-ride-rises-with-line-size",
                "method": method,
                "line_bytes": hi.line_bytes,
                "ok": (
                    hi.free_ride_fraction > lo.free_ride_fraction
                    or (saturated
                        and hi.free_ride_fraction >= lo.free_ride_fraction)
                ),
                "detail": (
                    f"free-ride fraction {lo.free_ride_fraction:.1%} at "
                    f"{lo.line_bytes} B → {hi.free_ride_fraction:.1%} at "
                    f"{hi.line_bytes} B"
                    + (" (saturated at the smaller geometry)" if saturated
                       else "")
                ),
            })
        return out

    #: Failed claim → verdict name.
    _CLAIM_VERDICTS = {
        "free-ride-majority": "free-ride-minority",
        "misses-per-nnz-not-worse": "misses-per-nnz-regressed",
        "free-ride-rises-with-line-size": "line-geometry-gain-missing",
    }

    def verdicts(self) -> list[dict]:
        """Named divergence verdicts: every failed claim, plus the model
        confrontation (``memory-term-underpredicted`` when cachesim fill
        traffic exceeds the perfmodel's ``x``-read term)."""
        out: list[dict] = []
        for c in self.claims():
            if not c["ok"]:
                out.append({
                    "name": self._CLAIM_VERDICTS[c["claim"]],
                    "method": c["method"],
                    "line_bytes": c["line_bytes"],
                    "detail": c["detail"],
                })
        for e in self.entries:
            if (
                e.modeled_x_bytes > 0
                and e.measured_miss_bytes > self.model_tolerance * e.modeled_x_bytes
            ):
                out.append({
                    "name": "memory-term-underpredicted",
                    "method": e.method,
                    "line_bytes": e.line_bytes,
                    "detail": (
                        f"cachesim fill traffic {e.measured_miss_bytes:.0f} B "
                        f"exceeds the modeled x-read term "
                        f"{e.modeled_x_bytes:.0f} B "
                        f"(x{e.model_ratio:.2f}, allowed "
                        f"x{self.model_tolerance:.2f}) at {e.line_bytes} B"
                    ),
                })
        return out

    def to_suspects(self) -> list[Suspect]:
        """The divergence verdicts as explainer suspects."""
        return [
            Suspect(
                name=f"cache:{v['name']}",
                method=f"{v['method']}@{v['line_bytes']}B",
                detail=v["detail"],
            )
            for v in self.verdicts()
        ]

    # rendering ---------------------------------------------------------
    def render(self) -> str:
        """Human-readable profile table, claims and verdicts."""
        lines = ["cache conformance (cachesim vs perfmodel memory term)"]
        if self.meta.get("matrix"):
            lines[0] += f" — {self.meta['matrix']}"
        header = (
            f"{'method':<12} {'line':>5} {'nnz':>8} {'misses':>8} "
            f"{'miss/nnz':>9} {'ext':>8} {'free %':>7} {'local %':>8} "
            f"{'halo %':>7} {'model x':>8}"
        )
        lines += ["", header, "-" * len(header)]
        for e in sorted(self.entries, key=lambda e: (e.line_bytes, e.method)):
            lines.append(
                f"{e.method:<12} {e.line_bytes:>4}B {e.nnz:>8} "
                f"{e.misses_total:>8} {e.misses_per_nnz:>9.4f} "
                f"{e.ext_accesses:>8} "
                f"{100.0 * e.free_ride_fraction:>6.1f}% "
                f"{100.0 * e.free_ride_fraction_local:>7.1f}% "
                f"{100.0 * e.free_ride_fraction_halo:>6.1f}% "
                + (f"{e.model_ratio:>8.3f}" if e.modeled_x_bytes > 0
                   else f"{'-':>8}")
            )
        claims = self.claims()
        if claims:
            lines.append("")
            lines.append(f"claims ({len(claims)}):")
            for c in claims:
                mark = "OK " if c["ok"] else "FAIL"
                lines.append(
                    f"  [{mark}] {c['claim']} — {c['method']} @ "
                    f"{c['line_bytes']} B: {c['detail']}"
                )
        verdicts = self.verdicts()
        lines.append("")
        if verdicts:
            lines.append(f"verdicts ({len(verdicts)}):")
            for v in verdicts:
                lines.append(
                    f"  - [{v['name']}] {v['method']} @ {v['line_bytes']} B: "
                    f"{v['detail']}"
                )
        else:
            lines.append("verdicts: none — cache behaviour matches the paper")
        return "\n".join(lines)

    # persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """Versioned JSON-serialisable document."""
        return {
            "format": CACHE_CONFORMANCE_FORMAT,
            "version": CACHE_CONFORMANCE_VERSION,
            "meta": dict(self.meta),
            "baseline": self.baseline,
            "majority_threshold": self.majority_threshold,
            "miss_tolerance": self.miss_tolerance,
            "model_tolerance": self.model_tolerance,
            "entries": [e.to_dict() for e in self.entries],
            "claims": self.claims(),
            "verdicts": self.verdicts(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CacheConformance":
        if d.get("format") != CACHE_CONFORMANCE_FORMAT:
            raise MemTrafficError(
                f"not a cache-conformance document (format={d.get('format')!r})"
            )
        if int(d.get("version", 0)) > CACHE_CONFORMANCE_VERSION:
            raise MemTrafficError(
                f"cache-conformance document version {d.get('version')} is "
                f"newer than supported ({CACHE_CONFORMANCE_VERSION})"
            )
        return cls(
            entries=[MethodCacheProfile.from_dict(e) for e in d.get("entries", [])],
            meta=dict(d.get("meta", {})),
            baseline=str(d.get("baseline", "FSAI")),
            majority_threshold=float(d.get("majority_threshold", 0.5)),
            miss_tolerance=float(d.get("miss_tolerance", 0.05)),
            model_tolerance=float(d.get("model_tolerance", 1.0)),
        )

    def save(self, path) -> Path:
        """Write the versioned document; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "CacheConformance":
        """Read a document written by :meth:`save`."""
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise MemTrafficError(
                f"cannot read cache-conformance report: {exc}"
            ) from exc
        return cls.from_dict(doc)


def ledger_samples(
    ledger: FreeRideLedger, *, prefix: str = "memtraffic"
) -> list[dict]:
    """A ledger as ``collect()``-style instruments for OpenMetrics export
    (:func:`repro.observe.prom.render_openmetrics`), including the
    reuse-distance histogram families per entry category."""
    tags = {"method": ledger.method, "line_bytes": ledger.line_bytes}
    samples: list[dict] = []
    summary = ledger.summary()
    for key in (
        "accesses",
        "misses",
        "misses_per_nnz",
        "ext_accesses",
        "free_rides",
        "free_ride_fraction",
        "free_ride_fraction_local",
        "free_ride_fraction_halo",
        "rides_on_base",
        "rides_on_ext",
    ):
        samples.append({
            "kind": "gauge",
            "name": f"{prefix}.{key}",
            "tags": tags,
            "value": summary[key],
        })
    for r in sorted(ledger.ranks, key=lambda r: r.rank):
        samples.append({
            "kind": "gauge",
            "name": f"{prefix}.rank_misses",
            "tags": {**tags, "rank": r.rank},
            "value": r.misses_total,
        })
    for category in CATEGORIES:
        hist = ledger.reuse_histogram(category)
        if hist.count:
            samples.extend(
                hist.to_samples(
                    f"{prefix}.reuse_distance",
                    tags={**tags, "category": category},
                )
            )
    return samples


def cache_conformance_samples(
    report: CacheConformance, *, prefix: str = "cache"
) -> list[dict]:
    """A conformance report as ``collect()``-style instruments for
    OpenMetrics export."""
    samples: list[dict] = []
    for e in sorted(report.entries, key=lambda e: (e.line_bytes, e.method)):
        tags = {"method": e.method, "line_bytes": e.line_bytes}
        for key, value in (
            ("misses", e.misses_total),
            ("misses_per_nnz", e.misses_per_nnz),
            ("ext_accesses", e.ext_accesses),
            ("free_ride_fraction", e.free_ride_fraction),
            ("model_ratio", e.model_ratio),
        ):
            samples.append({
                "kind": "gauge",
                "name": f"{prefix}.{key}",
                "tags": tags,
                "value": value,
            })
    claims = report.claims()
    samples.append({
        "kind": "gauge",
        "name": f"{prefix}.claims_failed",
        "tags": {},
        "value": sum(1 for c in claims if not c["ok"]),
    })
    samples.append({
        "kind": "gauge",
        "name": f"{prefix}.verdicts",
        "tags": {},
        "value": len(report.verdicts()),
    })
    return samples
