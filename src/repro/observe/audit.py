"""Communication-invariance auditor (the paper's §4 claim, executable).

FSAIE-Comm's central guarantee is that extending the preconditioner pattern
leaves the SpMV communication schedule *byte-for-byte unchanged*.  This
module turns that claim into a verdict object instead of a bare boolean:

* :func:`compare_snapshots` diffs two
  :meth:`~repro.mpisim.tracker.CommTracker.snapshot` dictionaries edge by
  edge;
* :func:`schedule_snapshot` is the snapshot one
  :class:`~repro.dist.halo.HaloSchedule` update would record (static
  accounting: 8 bytes per halo value per update), so two schedules compare
  *without running a solve*.

Every comparison returns an :class:`InvarianceVerdict`: either *invariant*
(identical edge sets, message counts and byte counts) or a refutation
listing exactly which edges differ and by how much.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "InvarianceVerdict",
    "compare_snapshots",
    "schedule_snapshot",
]


def _edge_key(edge: tuple[int, int]) -> str:
    return f"{edge[0]}->{edge[1]}"


@dataclass
class InvarianceVerdict:
    """Outcome of one communication-invariance comparison.

    ``invariant`` is True iff both sides exchanged exactly the same directed
    edges with identical message and byte counts per edge (and, for tracker
    snapshots, identical collective accounting).  When False, the offending
    edges are itemised.
    """

    base: str
    other: str
    invariant: bool
    #: Edges present in ``base`` but absent from ``other``.
    missing_edges: list[tuple[int, int]] = field(default_factory=list)
    #: Edges present in ``other`` but absent from ``base`` — the typical
    #: refutation: a widened halo creates *new* communication.
    extra_edges: list[tuple[int, int]] = field(default_factory=list)
    #: Shared edges whose byte counts differ: edge -> (base_bytes, other_bytes).
    byte_mismatches: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    #: Shared edges whose message counts differ: edge -> (base, other).
    message_mismatches: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    #: Collectives whose call/byte accounting differ: name -> (base, other).
    collective_mismatches: dict[str, tuple[tuple[int, int], tuple[int, int]]] = field(
        default_factory=dict
    )
    #: Total (edges, messages, bytes) on each side, for the report footer.
    base_totals: tuple[int, int, int] = (0, 0, 0)
    other_totals: tuple[int, int, int] = (0, 0, 0)

    @property
    def violations(self) -> int:
        """Number of individual discrepancies across all categories."""
        return (
            len(self.missing_edges)
            + len(self.extra_edges)
            + len(self.byte_mismatches)
            + len(self.message_mismatches)
            + len(self.collective_mismatches)
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "base": self.base,
            "other": self.other,
            "invariant": self.invariant,
            "missing_edges": [_edge_key(e) for e in self.missing_edges],
            "extra_edges": [_edge_key(e) for e in self.extra_edges],
            "byte_mismatches": {
                _edge_key(e): list(v) for e, v in self.byte_mismatches.items()
            },
            "message_mismatches": {
                _edge_key(e): list(v) for e, v in self.message_mismatches.items()
            },
            "collective_mismatches": {
                k: [list(a), list(b)] for k, (a, b) in self.collective_mismatches.items()
            },
            "base_totals": {
                "edges": self.base_totals[0],
                "messages": self.base_totals[1],
                "bytes": self.base_totals[2],
            },
            "other_totals": {
                "edges": self.other_totals[0],
                "messages": self.other_totals[1],
                "bytes": self.other_totals[2],
            },
        }

    def render(self) -> str:
        """Human-readable verdict (one line when invariant, itemised otherwise)."""
        head = (
            f"communication invariance [{self.base} vs {self.other}]: "
            f"{'HOLDS' if self.invariant else 'VIOLATED'}"
        )
        be, bm, bb = self.base_totals
        oe, om, ob = self.other_totals
        lines = [
            head,
            f"  {self.base}: {be} edges, {bm} messages, {bb} bytes",
            f"  {self.other}: {oe} edges, {om} messages, {ob} bytes",
        ]
        if self.invariant:
            return "\n".join(lines)
        for edge in self.extra_edges:
            lines.append(f"  extra edge {_edge_key(edge)} (absent from {self.base})")
        for edge in self.missing_edges:
            lines.append(f"  missing edge {_edge_key(edge)} (absent from {self.other})")
        for edge, (a, b) in self.byte_mismatches.items():
            lines.append(f"  bytes differ on {_edge_key(edge)}: {a} vs {b}")
        for edge, (a, b) in self.message_mismatches.items():
            lines.append(f"  messages differ on {_edge_key(edge)}: {a} vs {b}")
        for name, (a, b) in self.collective_mismatches.items():
            lines.append(
                f"  collective {name!r} differs: calls/bytes {a[0]}/{a[1]} "
                f"vs {b[0]}/{b[1]}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "invariant" if self.invariant else f"{self.violations} violation(s)"
        return f"InvarianceVerdict({self.base!r} vs {self.other!r}, {state})"


def _normalise(snapshot: dict) -> dict:
    """Accept either tuple-keyed (live) or string-keyed (JSON) snapshots."""

    def fix_edges(mapping: dict) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for key, value in mapping.items():
            if isinstance(key, str):
                src, _, dst = key.partition("->")
                key = (int(src), int(dst))
            out[(int(key[0]), int(key[1]))] = int(value)
        return out

    return {
        "p2p_messages": fix_edges(snapshot.get("p2p_messages", {})),
        "p2p_bytes": fix_edges(snapshot.get("p2p_bytes", {})),
        "collective_calls": dict(snapshot.get("collective_calls", {})),
        "collective_bytes": dict(snapshot.get("collective_bytes", {})),
    }


def _totals(snap: dict) -> tuple[int, int, int]:
    msgs = snap["p2p_messages"]
    return (
        sum(1 for v in msgs.values() if v > 0),
        sum(msgs.values()),
        sum(snap["p2p_bytes"].values()),
    )


def compare_snapshots(
    base: dict,
    other: dict,
    *,
    base_label: str = "base",
    other_label: str = "other",
    check_collectives: bool = True,
) -> InvarianceVerdict:
    """Diff two :meth:`CommTracker.snapshot` dictionaries edge by edge.

    ``check_collectives=False`` restricts the verdict to point-to-point
    traffic — the halo-exchange invariance the paper states (iteration-count
    differences legitimately change the number of allreduces).
    """
    a, b = _normalise(base), _normalise(other)
    edges_a = {e for e, n in a["p2p_messages"].items() if n > 0}
    edges_b = {e for e, n in b["p2p_messages"].items() if n > 0}
    verdict = InvarianceVerdict(
        base=base_label,
        other=other_label,
        invariant=True,
        missing_edges=sorted(edges_a - edges_b),
        extra_edges=sorted(edges_b - edges_a),
        base_totals=_totals(a),
        other_totals=_totals(b),
    )
    for edge in sorted(edges_a & edges_b):
        na, nb = a["p2p_messages"][edge], b["p2p_messages"][edge]
        if na != nb:
            verdict.message_mismatches[edge] = (na, nb)
        ba, bb = a["p2p_bytes"].get(edge, 0), b["p2p_bytes"].get(edge, 0)
        if ba != bb:
            verdict.byte_mismatches[edge] = (ba, bb)
    if check_collectives:
        for name in sorted(set(a["collective_calls"]) | set(b["collective_calls"])):
            ca = (a["collective_calls"].get(name, 0), a["collective_bytes"].get(name, 0))
            cb = (b["collective_calls"].get(name, 0), b["collective_bytes"].get(name, 0))
            if ca != cb:
                verdict.collective_mismatches[name] = (ca, cb)
    verdict.invariant = verdict.violations == 0
    return verdict


# ----------------------------------------------------------------------
def schedule_snapshot(schedule) -> dict:
    """Static tracker-style snapshot of one :class:`HaloSchedule` update.

    Exactly what a :class:`CommTracker` would record for a single
    ``schedule.update`` call: one message of ``8 · len(ids)`` bytes per
    directed (sender, receiver) pair.
    """
    senders, receivers, nbytes = schedule.messages
    edges = list(zip(senders.tolist(), receivers.tolist()))
    return {
        "p2p_messages": dict.fromkeys(edges, 1),
        "p2p_bytes": dict(zip(edges, nbytes.tolist())),
        "collective_calls": {},
        "collective_bytes": {},
    }

