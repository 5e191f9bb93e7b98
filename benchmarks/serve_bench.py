"""Solve-farm serving benchmark: ``BENCH_serve.json``.

The serving layer's claim is the paper's setup-reuse economics at traffic
scale: once the structure-keyed artifacts (FSAI factors, halo schedules,
SpMV plans, workspaces) are cached, a solve request costs an *apply*, not
a *setup*.  This suite proves it per concurrency rung:

* **admission** — a deterministic, synchronous exercise of the
  :class:`~repro.serve.tenancy.AdmissionController`: a fixed request
  pattern over two tenants plus one unknown tenant produces exact
  admitted/shed counts per shed reason (``admission.*`` keys, gated
  exactly);
* **cold** — a farm with caching disabled (``cache_max_bytes=0``) serves
  ``n`` concurrent requests over two tenants and four same-structure value
  variants; every request pays the full setup (``r{n}.cold.*`` keys);
* **warm** — a fresh farm is pre-warmed with one request per variant, then
  serves the same ``n`` requests from cache: structure-tier hits are exact
  (``n``), the §4 invariance audit runs on every warm-structure build and
  must be clean, and the timed phase yields the throughput reported as
  ``r{n}.warm_cold_speedup`` against the cold phase.

That a warm request does no set-up is gated by counts, never by the clock
(:func:`failed_claims`, the suite's claims in ``scripts/check_bench.py
serve``, run on every document): the warm farm builds each value variant once, in the
pre-warm, and the cold farm builds once per request and hits nothing.
The speedup itself is a timing like the throughputs it divides — about
1 + set-up/solve of this one small system — so it is reported and carries
no floor (docs/SERVING.md has the numbers).

Counts, flags, hit rates and shed fractions are deterministic — admission
is lock-serialised, per-key build locks make cache misses exact, and the
thread-local kernel scratch keeps concurrent solves bitwise equal to
sequential ones — so they gate exactly against
``benchmarks/baselines/serve_baseline.json``.  Latency percentiles and
throughputs are machine-dependent (``--check-timings`` only); wall seconds
are never gated.  ``--quick`` runs the first rung only, producing a strict
key-subset with identical gateable values.

Run::

    PYTHONPATH=src python benchmarks/suites.py serve           # full ladder
    PYTHONPATH=src python benchmarks/suites.py serve --quick   # first rung only
"""

from __future__ import annotations

import time

from repro.matgen import poisson2d
from repro.serve import (
    AdmissionController,
    FarmConfig,
    ServeReport,
    SolveFarm,
    SolveRequest,
    TenantPolicy,
)
from repro.sparse.csr import CSRMatrix

#: Concurrency rungs (requests per phase).  ``--quick`` keeps the first
#: rung only, so quick summaries are a strict key-subset of the full run.
RUNGS = (16, 64)
QUICK_RUNGS = (16,)
#: Poisson grid of the served system (``GRID``² rows) and cluster shape.
GRID = 32
RANKS = 4
METHOD = "comm"
WORKERS = 8
#: The two tenants requests alternate between.
TENANTS = ("alpha", "beta")
#: Same-structure value variants (diagonal shifts): variant 0 is the base
#: system; the others exercise the same-structure/different-values reuse
#: path, including the invariance audit on each first encounter.
VARIANTS = 4
DIAG_SHIFT = 0.05

#: Deterministic admission-phase shape: queue bound, per-tenant budgets,
#: and the request pattern (8 alpha, 4 beta, 1 unknown).
ADMISSION_QUEUE = 8
ADMISSION_BUDGETS = {"alpha": 6, "beta": 4}
ADMISSION_PATTERN = ("alpha",) * 8 + ("beta",) * 4 + ("mallory",)


def make_variants(grid: int, nvariants: int) -> list:
    """The base Poisson system plus ``nvariants - 1`` diagonal-shifted
    copies: identical structure, different values, all SPD."""
    import numpy as np

    base = poisson2d(grid)
    mats = [base]
    indptr, indices = base.indptr, base.indices
    diag_pos = np.empty(base.shape[0], dtype=np.int64)
    for row in range(base.shape[0]):
        cols = indices[indptr[row]:indptr[row + 1]]
        diag_pos[row] = indptr[row] + int(np.searchsorted(cols, row))
    for v in range(1, nvariants):
        data = base.data.copy()
        data[diag_pos] += DIAG_SHIFT * v
        mats.append(
            CSRMatrix(base.shape, indptr, indices, data, check=False)
        )
    return mats


def run_admission_phase() -> dict:
    """Deterministic admission counts: the fixed pattern against fixed
    budgets, no solver involved.  Returns the flat ``admission.*`` keys."""
    controller = AdmissionController(
        [TenantPolicy(t, max_in_flight=b) for t, b in ADMISSION_BUDGETS.items()],
        queue_limit=ADMISSION_QUEUE,
    )
    verdicts = [controller.admit(t) for t in ADMISSION_PATTERN]
    reasons: dict[str, int] = {}
    for v in verdicts:
        if not v.admitted:
            reasons[v.reason] = reasons.get(v.reason, 0) + 1
    for v in verdicts:
        if v.admitted:
            controller.release(v.tenant)
    stats = controller.to_dict()
    return {
        "admission.admitted": stats["admitted"],
        "admission.shed": stats["shed"],
        "admission.shed_fraction": stats["shed_fraction"],
        "admission.shed_queue_full": reasons.get("queue-full", 0),
        "admission.shed_tenant_budget": reasons.get("tenant-budget", 0),
        "admission.shed_unknown": reasons.get("unknown-tenant", 0),
    }


def _requests(n: int, mats: list) -> list:
    """The rung's request list: tenants alternate, value variants cycle."""
    return [
        SolveRequest(
            tenant=TENANTS[i % len(TENANTS)],
            mat=mats[i % len(mats)],
            tag=f"req{i}",
        )
        for i in range(n)
    ]


def _farm_config(n: int, *, cache_max_bytes) -> FarmConfig:
    return FarmConfig(
        ranks=RANKS,
        method=METHOD,
        workers=WORKERS,
        queue_limit=2 * n + len(TENANTS) * VARIANTS,
        cache_max_bytes=cache_max_bytes,
    )


def _tenants(n: int) -> list:
    return [TenantPolicy(t, max_in_flight=2 * n) for t in TENANTS]


def run_rung(n: int, mats: list) -> dict:
    """One concurrency rung: cold phase, then pre-warmed warm phase.

    Returns ``{"cold": ServeReport dict, "warm": ServeReport dict,
    "summary": flat keys}``.
    """
    requests = _requests(n, mats)
    prefix = f"r{n}"
    summary: dict = {}

    with SolveFarm(_tenants(n), _farm_config(n, cache_max_bytes=0)) as cold_farm:
        t0 = time.perf_counter()
        cold_outcomes = cold_farm.serve(requests)
        cold_wall = time.perf_counter() - t0
        cold_doc = ServeReport.from_farm(
            cold_farm, label=f"{prefix}-cold", phase="cold", requests=n
        ).to_dict()
        cold_report = cold_farm.report()

    summary[f"{prefix}.cold.wall_s"] = cold_wall
    summary[f"{prefix}.cold.throughput_rps"] = n / cold_wall
    summary[f"{prefix}.cold.solves"] = cold_report["counters"]["solves"]
    summary[f"{prefix}.cold.structure_builds"] = cold_report["counters"][
        "structure_builds"
    ]
    summary[f"{prefix}.cold.cache_hits"] = (
        cold_report["caches"]["structure"]["hits"]
        + cold_report["caches"]["system"]["hits"]
    )
    summary[f"{prefix}.cold.cache_misses"] = cold_report["caches"]["structure"][
        "misses"
    ]
    summary[f"{prefix}.cold.shed"] = cold_report["admission"]["shed"]
    summary[f"{prefix}.cold.converged"] = int(
        all(o.ok for o in cold_outcomes)
    )

    with SolveFarm(_tenants(n), _farm_config(n, cache_max_bytes=None)) as warm_farm:
        # pre-warm: one request per value variant, served sequentially so
        # the timed phase below hits the cache on every request
        for v in range(len(mats)):
            warm_farm.serve([_requests(len(mats), mats)[v]])
        t0 = time.perf_counter()
        warm_outcomes = warm_farm.serve(requests)
        warm_wall = time.perf_counter() - t0
        warm_doc = ServeReport.from_farm(
            warm_farm, label=f"{prefix}-warm", phase="warm", requests=n
        ).to_dict()
        warm_report = warm_farm.report()

    caches = warm_report["caches"]
    counters = warm_report["counters"]
    admission = warm_report["admission"]
    summary[f"{prefix}.warm.wall_s"] = warm_wall
    summary[f"{prefix}.warm.throughput_rps"] = n / warm_wall
    summary[f"{prefix}.warm.solves"] = counters["solves"]
    summary[f"{prefix}.warm.structure_hits"] = caches["structure"]["hits"]
    summary[f"{prefix}.warm.structure_misses"] = caches["structure"]["misses"]
    summary[f"{prefix}.warm.system_hits"] = caches["system"]["hits"]
    summary[f"{prefix}.warm.system_misses"] = caches["system"]["misses"]
    summary[f"{prefix}.warm.hit_rate"] = caches["structure"]["hit_rate"]
    summary[f"{prefix}.warm.audits"] = counters["audits"]
    summary[f"{prefix}.warm.audit_violations"] = counters["audit_violations"]
    summary[f"{prefix}.warm.schedule_invariant"] = int(
        counters["audits"] > 0 and counters["audit_violations"] == 0
    )
    summary[f"{prefix}.warm.iterations_total"] = sum(
        o.iterations for o in warm_outcomes
    )
    summary[f"{prefix}.warm.converged"] = int(all(o.ok for o in warm_outcomes))
    summary[f"{prefix}.warm.shed"] = admission["shed"]
    summary[f"{prefix}.warm.shed_fraction"] = admission["shed_fraction"]
    for tenant, tstats in admission["tenants"].items():
        lat = tstats["latency"]
        summary[f"{prefix}.{tenant}.latency.p50_ms"] = 1e3 * lat["p50_s"]
        summary[f"{prefix}.{tenant}.latency.p95_ms"] = 1e3 * lat["p95_s"]
        summary[f"{prefix}.{tenant}.latency.p99_ms"] = 1e3 * lat["p99_s"]

    summary[f"{prefix}.warm_cold_speedup"] = (
        summary[f"{prefix}.warm.throughput_rps"]
        / summary[f"{prefix}.cold.throughput_rps"]
    )
    return {"cold": cold_doc, "warm": warm_doc, "summary": summary}


def run_serve_suite(*, quick: bool = False) -> dict:
    """Run the ladder; returns the ``BENCH_serve.json`` document.

    The ``serve`` section holds the per-rung cold/warm
    ``repro-serve-report`` documents; ``summary`` is the flat surface
    consumed by :meth:`repro.observe.RunReport.from_bench` and gated by
    ``scripts/check_bench.py serve``.
    """
    rungs = QUICK_RUNGS if quick else RUNGS
    mats = make_variants(GRID, VARIANTS)
    serve: dict = {}
    summary = run_admission_phase()
    for n in rungs:
        rung = run_rung(n, mats)
        serve[f"r{n}"] = {"cold": rung["cold"], "warm": rung["warm"]}
        summary.update(rung["summary"])
    return {
        "suite": "serve",
        "config": {
            "rungs": list(rungs),
            "grid": GRID,
            "ranks": RANKS,
            "method": METHOD,
            "workers": WORKERS,
            "tenants": list(TENANTS),
            "variants": VARIANTS,
        },
        "serve": serve,
        "summary": summary,
    }


def failed_claims(result: dict) -> list[str]:
    """The suite's self-checks: exact cache counts (the warm farm built
    each value variant once, in the pre-warm, so no timed request built
    anything; the cold farm built once per request and hit nothing), clean
    audits, convergence.  Empty when everything holds."""
    problems = []
    s = result["summary"]
    variants = result["config"]["variants"]
    for n in result["config"]["rungs"]:
        builds = s[f"r{n}.warm.structure_misses"] + s[f"r{n}.warm.system_misses"]
        if builds != variants:
            problems.append(
                f"r{n}: warm farm made {builds:g} builds for {variants} value "
                "variants (the pre-warm makes one each; a timed request must "
                "make none)"
            )
        if s[f"r{n}.cold.structure_builds"] != n or s[f"r{n}.cold.cache_hits"]:
            problems.append(
                f"r{n}: cold farm made {s[f'r{n}.cold.structure_builds']:g} "
                f"structure builds and {s[f'r{n}.cold.cache_hits']:g} cache "
                f"hits for {n} requests (expected {n} and 0)"
            )
        if not s[f"r{n}.warm.schedule_invariant"]:
            problems.append(f"r{n}: §4 invariance audit not clean on served solves")
        if not (s[f"r{n}.warm.converged"] and s[f"r{n}.cold.converged"]):
            problems.append(f"r{n}: not all served solves converged")
        if s[f"r{n}.warm.structure_misses"] != 1:
            problems.append(
                f"r{n}: expected exactly 1 warm structure miss (the pre-warm "
                f"build), got {s[f'r{n}.warm.structure_misses']}"
            )
    return problems


def format_summary(result: dict) -> str:
    cfg = result["config"]
    s = result["summary"]
    lines = [
        "solve-farm serving ladder (poisson2d:%d, %d ranks, %s, %d workers, "
        "%d tenants)"
        % (cfg["grid"], cfg["ranks"], cfg["method"], cfg["workers"],
           len(cfg["tenants"])),
        "",
        f"admission: {s['admission.admitted']} admitted, "
        f"{s['admission.shed']} shed "
        f"(queue {s['admission.shed_queue_full']}, "
        f"budget {s['admission.shed_tenant_budget']}, "
        f"unknown {s['admission.shed_unknown']}; "
        f"fraction {s['admission.shed_fraction']:.3f})",
        "",
    ]
    header = (
        f"{'rung':>5} {'cold rps':>9} {'warm rps':>9} {'speedup':>8} "
        f"{'hit rate':>8} {'audits':>6} {'p95 ms':>8}"
    )
    lines += [header, "-" * len(header)]
    for n in cfg["rungs"]:
        p95 = max(
            s.get(f"r{n}.{t}.latency.p95_ms", 0.0) for t in cfg["tenants"]
        )
        lines.append(
            f"{n:>5} {s[f'r{n}.cold.throughput_rps']:>9.1f} "
            f"{s[f'r{n}.warm.throughput_rps']:>9.1f} "
            f"{s[f'r{n}.warm_cold_speedup']:>7.1f}x "
            f"{s[f'r{n}.warm.hit_rate']:>8.3f} "
            f"{s[f'r{n}.warm.audits']:>4}/{s[f'r{n}.warm.audit_violations']} "
            f"{p95:>8.2f}"
        )
    problems = failed_claims(result)
    lines.append("")
    lines.append(f"failed claims: {len(problems)}")
    lines.extend(f"  {p}" for p in problems)
    return "\n".join(lines)

