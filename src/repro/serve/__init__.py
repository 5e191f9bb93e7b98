"""Solver-as-a-service: the multi-tenant batched solve farm.

This package is the serving front door over everything built below it —
the paper's setup artifacts (FSAI/FSAIE/FSAIE-Comm factors, halo
schedules, SpMV plans, solver workspaces) are expensive to build and cheap
to reuse, and :mod:`repro.serve` turns that into service economics:

* :mod:`~repro.serve.fingerprint` — structure fingerprints, the cache
  keys: SHA-256 over shape + CSR ``indptr``/``indices`` + setup options
  (values deliberately excluded);
* :mod:`~repro.serve.cache` — the fingerprint-keyed
  :class:`~repro.serve.cache.ArtifactCache` (thread-safe LRU, max-bytes
  bound, ``serve.cache.*`` metrics) holding the structure and system
  artifact tiers;
* :mod:`~repro.serve.tenancy` — admission control: per-tenant token
  budgets, a bounded global queue, load-shed verdicts, per-tenant latency
  histograms;
* :mod:`~repro.serve.farm` — the :class:`~repro.serve.farm.SolveFarm`
  itself: asyncio front end, thread workers hosting
  :func:`repro.core.cg.pcg` / :func:`repro.dist.spmd.spmd_cg`, chaos
  tenants under :mod:`repro.resilience` fault plans, and the §4
  invariance audit run on every warm-structure solve;
* :mod:`~repro.serve.report` — the versioned ``repro-serve-report``
  artifact.

Operator documentation lives in ``docs/SERVING.md``; the benchmark is
``benchmarks/serve_bench.py`` (gated by ``scripts/check_bench.py
serve``); the CLI driver is ``repro serve``.
"""

from repro.serve.cache import (
    ArtifactCache,
    SetupArtifacts,
    SystemArtifacts,
    WorkspacePool,
    estimate_dist_nbytes,
    estimate_precond_nbytes,
)
from repro.serve.farm import FarmConfig, SolveFarm, SolveOutcome, SolveRequest
from repro.serve.fingerprint import fingerprint_structure, values_digest
from repro.serve.report import ServeReport, ServeReportError
from repro.serve.tenancy import AdmissionController, AdmissionVerdict, TenantPolicy

__all__ = [
    "fingerprint_structure",
    "values_digest",
    "ArtifactCache",
    "SetupArtifacts",
    "SystemArtifacts",
    "WorkspacePool",
    "estimate_dist_nbytes",
    "estimate_precond_nbytes",
    "TenantPolicy",
    "AdmissionVerdict",
    "AdmissionController",
    "SolveRequest",
    "SolveOutcome",
    "FarmConfig",
    "SolveFarm",
    "ServeReportError",
    "ServeReport",
]
