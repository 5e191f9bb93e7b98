"""Set-up reuse benchmark: ``BENCH_serve.json``.

The paper's set-up artifacts (the FSAIE-Comm pattern and factors, the halo
schedule) depend only on the matrix structure, so a stream of
same-structure systems pays the set-up once.  Each rung of ``n`` solves
proves it with exact counts:

* a fresh :class:`~repro.serve.ArtifactCache` is pre-warmed with one solve
  per value variant (four diagonal shifts of ``poisson2d(32)``, 4 ranks,
  FSAIE-Comm): one structure build, then three system builds, each audited
  against the cached halo schedule (§4);
* it then solves ``n`` systems cycling through the variants, and every one
  hits both tiers: no timed solve builds anything.

Counts, flags and the hit rate are deterministic and gate exactly against
``benchmarks/baselines/serve_baseline.json`` (``iterations_total`` within
the iteration allowance); the throughput only under ``--check-timings``;
wall seconds never.  :func:`failed_claims` states the build counts without
a baseline.  ``--quick`` runs the first rung only, a strict key-subset with
identical gateable values.

Run::

    PYTHONPATH=src python benchmarks/suites.py serve           # full ladder
    PYTHONPATH=src python benchmarks/suites.py serve --quick   # first rung only
"""

from __future__ import annotations

import time

from repro.matgen import poisson2d
from repro.serve import ArtifactCache, value_variants

#: Rungs (timed solves).  ``--quick`` keeps the first rung only, so quick
#: summaries are a strict key-subset of the full run.
RUNGS = (16, 64)
QUICK_RUNGS = (16,)
#: Poisson grid of the solved system (``GRID``² rows) and cluster shape.
GRID = 32
RANKS = 4
METHOD = "comm"
#: Same-structure value variants: variant 0 is the base system; the others
#: exercise the same-structure/different-values path and its audit.
VARIANTS = 4


def run_rung(n: int, mats: list) -> dict:
    """One rung: pre-warm one solve per variant, then ``n`` timed solves.
    Returns the cache counts plus the rung's timing, hit rate, audit
    verdict, iteration total and convergence flag."""
    cache = ArtifactCache(ranks=RANKS, method=METHOD)
    cache.solve_many(mats)
    t0 = time.perf_counter()
    outcomes = cache.solve_many([mats[i % len(mats)] for i in range(n)])
    wall = time.perf_counter() - t0
    c = cache.counts
    return {
        **c,
        "wall_s": wall,
        "throughput_rps": n / wall,
        "hit_rate": c["structure_hits"] / (c["structure_hits"] + c["structure_misses"]),
        "schedule_invariant": int(c["audits"] > 0 and c["audit_violations"] == 0),
        "iterations_total": sum(o.iterations for o in outcomes),
        "converged": int(all(o.converged for o in outcomes)),
    }


def run_serve_suite(*, quick: bool = False) -> dict:
    """Run the ladder; returns the ``BENCH_serve.json`` document.

    The ``serve`` section holds each rung's numbers; ``summary`` is the
    flat ``r{n}.warm.*`` surface consumed by
    :meth:`repro.observe.RunReport.from_bench` and gated by
    ``scripts/check_bench.py serve``.
    """
    rungs = QUICK_RUNGS if quick else RUNGS
    mats = value_variants(poisson2d(GRID), VARIANTS)
    serve: dict = {}
    summary: dict = {}
    for n in rungs:
        serve[f"r{n}"] = rung = run_rung(n, mats)
        summary.update({f"r{n}.warm.{key}": value for key, value in rung.items()})
    return {
        "suite": "serve",
        "config": {
            "rungs": list(rungs),
            "grid": GRID,
            "ranks": RANKS,
            "method": METHOD,
            "variants": VARIANTS,
        },
        "serve": serve,
        "summary": summary,
    }


def failed_claims(result: dict) -> list[str]:
    """The suite's self-checks: exact build counts (the cache built the
    structure once and each other value variant once, all in the pre-warm,
    so no timed solve built anything), clean audits, convergence.  Empty
    when everything holds."""
    problems = []
    s = result["summary"]
    variants = result["config"]["variants"]
    for n in result["config"]["rungs"]:
        w = f"r{n}.warm"
        builds = s[f"{w}.structure_misses"] + s[f"{w}.system_misses"]
        if builds != variants:
            problems.append(
                f"r{n}: the cache made {builds:g} builds for {variants} value "
                "variants (the pre-warm makes one each; a timed solve must "
                "make none)"
            )
        if not s[f"{w}.schedule_invariant"]:
            problems.append(f"r{n}: §4 invariance audit not clean on served solves")
        if not s[f"{w}.converged"]:
            problems.append(f"r{n}: not all served solves converged")
        if s[f"{w}.structure_misses"] != 1:
            problems.append(
                f"r{n}: expected exactly 1 structure miss (the pre-warm "
                f"build), got {s[f'{w}.structure_misses']}"
            )
    return problems


def format_summary(result: dict) -> str:
    cfg = result["config"]
    s = result["summary"]
    lines = [
        f"set-up reuse ladder (poisson2d:{cfg['grid']}, {cfg['ranks']} ranks, "
        f"{cfg['method']}, {cfg['variants']} value variants)",
        "",
    ]
    header = (
        f"{'rung':>5} {'solves/s':>9} {'hit rate':>8} {'builds':>6} "
        f"{'audits':>6} {'iterations':>10}"
    )
    lines += [header, "-" * len(header)]
    for n in cfg["rungs"]:
        w = f"r{n}.warm"
        builds = s[f"{w}.structure_misses"] + s[f"{w}.system_misses"]
        lines.append(
            f"{n:>5} {s[f'{w}.throughput_rps']:>9.1f} "
            f"{s[f'{w}.hit_rate']:>8.3f} {builds:>6} "
            f"{s[f'{w}.audits']:>4}/{s[f'{w}.audit_violations']} "
            f"{s[f'{w}.iterations_total']:>10}"
        )
    problems = failed_claims(result)
    lines.append("")
    lines.append(f"failed claims: {len(problems)}")
    lines.extend(f"  {p}" for p in problems)
    return "\n".join(lines)
