"""Fingerprint-keyed set-up reuse: build once per structure, solve many.

An :class:`ArtifactCache` holds two tiers of set-up state, as plain dicts:

* :attr:`~ArtifactCache.structures`, keyed by the structure digest
  (:func:`~repro.serve.fingerprint.fingerprint_structure`) — the partition,
  the preconditioner and the halo-schedule snapshot of the first operator
  built on that structure (:class:`SetupArtifacts`);
* :attr:`~ArtifactCache.systems`, keyed by ``(structure digest, values
  digest)`` — the distributed operator of one bitwise matrix and one warm
  :class:`~repro.kernels.SolverWorkspace` (:class:`SystemArtifacts`).

:meth:`ArtifactCache.solve_many` solves each matrix against the paper's
right-hand side with :func:`repro.core.cg.pcg`.  Every system build that
follows a structure hit re-derives the halo schedule and compares it with
the cached snapshot (:func:`repro.observe.audit.compare_snapshots`, the §4
audit), so same-structure reuse is proven to move byte-identical traffic
rather than assumed to.  The cache lives as long as its object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cg import pcg
from repro.core.precond import (
    FilterSpec,
    PrecondOptions,
    build_fsai,
    build_fsaie,
    build_fsaie_comm,
)
from repro.dist.matrix import DistMatrix
from repro.dist.partition_map import RowPartition
from repro.dist.vector import DistVector
from repro.errors import ReproError, SparseFormatError
from repro.kernels.workspace import SolverWorkspace
from repro.matgen.rhs import paper_rhs
from repro.observe.audit import compare_snapshots, schedule_snapshot
from repro.serve.fingerprint import fingerprint_structure, values_digest
from repro.sparse.csr import CSRMatrix

__all__ = ["ArtifactCache", "SolveOutcome", "value_variants"]

_BUILDERS = {"fsai": build_fsai, "fsaie": build_fsaie, "comm": build_fsaie_comm}

#: Diagonal shift between consecutive :func:`value_variants`.
DIAG_SHIFT = 0.05

#: The counters :attr:`ArtifactCache.counts` keeps.
COUNTS = (
    "solves",
    "structure_hits",
    "structure_misses",
    "system_hits",
    "system_misses",
    "audits",
    "audit_violations",
)


def value_variants(mat: CSRMatrix, count: int) -> list[CSRMatrix]:
    """``mat`` plus ``count - 1`` copies whose diagonal is shifted by
    ``DIAG_SHIFT``, ``2·DIAG_SHIFT``, …: the same structure (shared
    ``indptr`` / ``indices``) with different values, SPD when ``mat`` is.

    Raises :class:`~repro.errors.SparseFormatError` naming the first row
    that stores no diagonal entry.
    """
    rows = np.repeat(np.arange(mat.nrows, dtype=np.int64), mat.row_nnz())
    diag = np.flatnonzero(mat.indices == rows)
    if diag.size < mat.nrows:
        missing = np.setdiff1d(np.arange(mat.nrows), rows[diag])[0]
        raise SparseFormatError(
            f"row {missing} stores no diagonal entry, so its diagonal cannot "
            "be shifted"
        )
    variants = [mat]
    for v in range(1, count):
        data = mat.data.copy()
        data[diag] += DIAG_SHIFT * v
        variants.append(CSRMatrix(mat.shape, mat.indptr, mat.indices, data, check=False))
    return variants


@dataclass
class SetupArtifacts:
    """Structure-tier entry: what the sparsity structure and the set-up
    options determine, reusable by every matrix with the same digest.

    ``schedule_snapshot`` is the per-edge accounting of the first
    operator's halo schedule (:func:`repro.observe.audit.schedule_snapshot`),
    kept so later builds on this structure can prove theirs identical.
    """

    partition: RowPartition
    preconditioner: object
    schedule_snapshot: dict


@dataclass
class SystemArtifacts:
    """System-tier entry: the distributed operator of one bitwise matrix and
    the workspace its solves reuse."""

    dist_a: DistMatrix
    workspace: SolverWorkspace


@dataclass
class SolveOutcome:
    """One solve of :meth:`ArtifactCache.solve_many`.

    ``schedule_invariant`` is the §4 audit's verdict when this solve built a
    system on a cached structure, ``None`` when it audited nothing.
    """

    converged: bool
    iterations: int
    structure_hit: bool
    system_hit: bool
    schedule_invariant: bool | None


class ArtifactCache:
    """Set-up artifacts keyed by fingerprint, and the solves that reuse them.

    The six keywords are the set-up options the structure digest covers:
    ``ranks`` and ``seed`` partition, ``method`` (``fsai`` / ``fsaie`` /
    ``comm``), ``line_bytes``, ``filter_value`` and ``dynamic`` build the
    preconditioner.  :attr:`counts` holds the tier hits and misses, the
    solves and the §4 audits.
    """

    def __init__(
        self,
        *,
        ranks: int = 4,
        method: str = "comm",
        line_bytes: int = 64,
        filter_value: float = 0.01,
        dynamic: bool = True,
        seed: int = 0,
    ):
        if method not in _BUILDERS:
            raise ReproError(
                f"method must be one of {sorted(_BUILDERS)}, got {method!r}"
            )
        self.options = dict(
            ranks=ranks, method=method, line_bytes=line_bytes,
            filter_value=filter_value, dynamic=dynamic, seed=seed,
        )
        self.counts = dict.fromkeys(COUNTS, 0)
        self.structures: dict[str, SetupArtifacts] = {}
        self.systems: dict[tuple[str, str], SystemArtifacts] = {}

    def solve_many(
        self, mats, *, rtol: float = 1e-8, max_iterations: int = 10_000
    ) -> list[SolveOutcome]:
        """Solve each matrix against :func:`~repro.matgen.rhs.paper_rhs`,
        reusing every cached artifact; outcomes come back in input order."""
        return [self._solve(mat, rtol, max_iterations) for mat in mats]

    def _setup(self, mat, digest: str) -> tuple[SetupArtifacts, bool]:
        """Structure tier: the cached set-up, or a fresh build that also
        seeds the system tier with the operator it distributed."""
        setup = self.structures.get(digest)
        if setup is not None:
            self.counts["structure_hits"] += 1
            return setup, True
        self.counts["structure_misses"] += 1
        opts = self.options
        part = RowPartition.from_matrix(mat, opts["ranks"], seed=opts["seed"])
        pre = _BUILDERS[opts["method"]](mat, part, PrecondOptions(
            line_bytes=opts["line_bytes"],
            filter=FilterSpec(opts["filter_value"], dynamic=opts["dynamic"]),
        ))
        dist_a = DistMatrix.from_global(mat, part)
        setup = SetupArtifacts(part, pre, schedule_snapshot(dist_a.schedule))
        self.structures[digest] = setup
        self.systems[digest, values_digest(mat)] = SystemArtifacts(
            dist_a, SolverWorkspace(dist_a)
        )
        return setup, False

    def _solve(self, mat, rtol: float, max_iterations: int) -> SolveOutcome:
        digest = fingerprint_structure(mat, **self.options)
        setup, structure_hit = self._setup(mat, digest)
        key = (digest, values_digest(mat))
        system = self.systems.get(key)
        invariant = None
        if system is not None:
            self.counts["system_hits"] += 1
        else:
            # a structure build seeds its own system, so a system miss
            # always follows a structure hit: audit the fresh schedule
            self.counts["system_misses"] += 1
            dist_a = DistMatrix.from_global(mat, setup.partition)
            invariant = compare_snapshots(
                setup.schedule_snapshot, schedule_snapshot(dist_a.schedule),
                base_label="cached-structure", other_label="fresh-operator",
            ).invariant
            self.counts["audits"] += 1
            self.counts["audit_violations"] += int(not invariant)
            system = self.systems[key] = SystemArtifacts(
                dist_a, SolverWorkspace(dist_a)
            )
        b = DistVector.from_global(
            paper_rhs(mat, seed=self.options["seed"]), setup.partition
        )
        result = pcg(
            system.dist_a, b, precond=setup.preconditioner, rtol=rtol,
            max_iterations=max_iterations, workspace=system.workspace,
        )
        self.counts["solves"] += 1
        return SolveOutcome(
            converged=bool(result.converged),
            iterations=int(result.iterations),
            structure_hit=structure_hit,
            system_hit=invariant is None,
            schedule_invariant=invariant,
        )
