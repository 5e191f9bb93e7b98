"""Cache free-ride benchmark over the method ladder: ``BENCH_cache.json``.

The paper's Figures 3a/5a argue that FSAIE/FSAIE-Comm extension entries are
*nearly free*: their ``x``-operands live in cache lines the baseline FSAI
pattern already touched, so the extra nonzeros buy iteration reductions
without proportional L1 misses — and the effect *grows* with the cache-line
size (64 B Skylake/Zen 2 vs 256 B A64FX).  This suite proves all three
claims on the repo's own simulator, per grid, method and line geometry:

* the attributed cache replay (:func:`repro.cachesim
  .precond_x_misses_per_rank` with a ``ledger=``) classifies **every**
  extension-entry ``x`` access of the ``Gᵀ(Gx)`` stream as free ride vs new
  fill against the baseline pattern, split by local/halo extension;
* a :class:`repro.observe.CacheConformance` report per grid confronts the
  measured fill traffic with the :class:`repro.perfmodel.CostModel`
  ``x``-read memory term and gates the claims — **free-ride majority**,
  **free-ride fraction rises from 64 B to 256 B lines**, **misses-per-nnz
  not worse than FSAI** — as pass/fail records in the document;
* every count, fraction and flag lands in the flat ``summary`` surface
  (``g{grid}.{method}.l{line}.*``) consumed by
  :meth:`repro.observe.RunReport.from_bench`.

The ladder itself is :func:`repro.perfmodel.ladders.cache_ladder`, the one
``repro cache`` runs.  Everything here is a deterministic pure function of
the matrix, partition seed and cache geometry — no timings — so
``scripts/check_bench.py cache`` gates the summary exactly against
``benchmarks/baselines/cache_baseline.json``.  ``--quick`` runs the first
grid only, producing a strict key-subset with identical values.

Run::

    PYTHONPATH=src python benchmarks/suites.py cache           # full ladder
    PYTHONPATH=src python benchmarks/suites.py cache --quick   # first grid only
"""

from __future__ import annotations

from repro.dist import RowPartition
from repro.matgen import poisson2d
from repro.perfmodel import MACHINES
from repro.perfmodel.ladders import cache_ladder

#: Poisson grids of the ladder (``grid``² rows each).  ``--quick`` keeps the
#: first grid only, so quick summaries are a strict key-subset of the full
#: run with identical values — what the regression gate's subset rule needs.
GRIDS = (32, 64)
QUICK_GRIDS = (32,)
RANKS = 4
PART_SEED = 0
#: The two evaluated line geometries: Skylake/Zen 2 and A64FX.
LINE_SIZES = (64, 256)
#: L1 capacity/associativity are held at the reference machine's while the
#: line size sweeps, so the geometry effect is isolated.
MACHINE = "skylake"

#: Ladder methods: summary key → preconditioner name.
METHODS = {"fsai": "FSAI", "fsaie": "FSAIE", "comm": "FSAIE-Comm"}

#: Claim name → summary flag key (``free-ride-rises-with-line-size`` is one
#: flag per method, the others one per method and line geometry).
CLAIM_FLAGS = {
    "free-ride-majority": "free_ride_majority",
    "misses-per-nnz-not-worse": "misses_per_nnz_ok",
    "free-ride-rises-with-line-size": "free_ride_rises",
}


def _rung_summary(grid: int, report) -> dict:
    """Flatten one rung into ``g{grid}.{method}.l{line}.*`` summary keys."""
    summary: dict = {}
    by_name = {name: key for key, name in METHODS.items()}
    for key, name in METHODS.items():
        for line_bytes in LINE_SIZES:
            e = report.profile(name, line_bytes)
            if e is None:
                continue
            prefix = f"g{grid}.{key}.l{line_bytes}"
            summary[f"{prefix}.nnz"] = e.nnz
            summary[f"{prefix}.misses"] = e.misses_total
            summary[f"{prefix}.misses_per_nnz"] = e.misses_per_nnz
            summary[f"{prefix}.ext_accesses"] = e.ext_accesses
            summary[f"{prefix}.free_rides"] = e.free_rides
            summary[f"{prefix}.free_ride_pct"] = 100.0 * e.free_ride_fraction
            summary[f"{prefix}.free_ride_local_pct"] = (
                100.0 * e.free_ride_fraction_local
            )
            summary[f"{prefix}.free_ride_halo_pct"] = (
                100.0 * e.free_ride_fraction_halo
            )
            summary[f"{prefix}.model_ratio"] = e.model_ratio
    for claim in report.claims():
        key = by_name[claim["method"]]
        flag = CLAIM_FLAGS[claim["claim"]]
        if claim["claim"] == "free-ride-rises-with-line-size":
            summary[f"g{grid}.{key}.{flag}"] = int(claim["ok"])
        else:
            summary[f"g{grid}.{key}.l{claim['line_bytes']}.{flag}"] = int(
                claim["ok"]
            )
    return summary


def run_cache_suite(*, quick: bool = False) -> dict:
    """Run the grid ladder; returns the ``BENCH_cache.json`` document.

    The ``cache`` section holds one versioned ``repro-cache-conformance``
    document per grid (``g{grid}`` keys, claims and verdicts included);
    ``summary`` is the flat exact-gated surface.
    """
    grids = QUICK_GRIDS if quick else GRIDS
    cache: dict = {}
    summary: dict = {}
    for grid in grids:
        mat = poisson2d(grid)
        report, _ = cache_ladder(
            mat, RowPartition.from_matrix(mat, RANKS, seed=PART_SEED),
            machine=MACHINES[MACHINE], methods=tuple(METHODS),
            line_sizes=LINE_SIZES, meta={"matrix": f"poisson2d:{grid}"},
        )
        cache[f"g{grid}"] = report.to_dict()
        summary.update(_rung_summary(grid, report))
    return {
        "suite": "cache",
        "config": {
            "grids": list(grids),
            "ranks": RANKS,
            "part_seed": PART_SEED,
            "line_sizes": list(LINE_SIZES),
            "machine": MACHINE,
            "methods": list(METHODS),
        },
        "cache": cache,
        "summary": summary,
    }


def format_summary(result: dict) -> str:
    cfg = result["config"]
    lines = [
        "cache free-ride ladder (poisson2d, %d ranks, %s L1 geometry)"
        % (cfg["ranks"], cfg["machine"]),
    ]
    header = (
        f"{'grid':>6} {'method':<12} {'line':>5} {'misses':>8} "
        f"{'miss/nnz':>9} {'ext':>9} {'free %':>7} {'claims':>7}"
    )
    lines += ["", header, "-" * len(header)]
    total_failed = 0
    for grid_key in sorted(result["cache"]):
        doc = result["cache"][grid_key]
        claims = doc.get("claims", [])
        failed = sum(1 for c in claims if not c["ok"])
        total_failed += failed
        by_method: dict = {}
        for c in claims:
            cell = by_method.setdefault((c["method"], c["line_bytes"]), [0, 0])
            cell[0] += 1
            cell[1] += int(c["ok"])
        for e in doc.get("entries", []):
            n, ok = by_method.get((e["method"], e["line_bytes"]), (0, 0))
            lines.append(
                f"{grid_key:>6} {e['method']:<12} {e['line_bytes']:>4}B "
                f"{e['misses_total']:>8} {e['misses_per_nnz']:>9.4f} "
                f"{e['ext_accesses']:>9} "
                f"{100.0 * e['free_ride_fraction']:>6.1f}% "
                f"{ok:>3}/{n}"
            )
    lines.append("")
    lines.append(f"failed claims: {total_failed}")
    return "\n".join(lines)

