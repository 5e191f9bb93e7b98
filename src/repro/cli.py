"""Command-line interface: solve and compare without writing Python.

Usage::

    python -m repro solve   --generate poisson3d:12 --ranks 8 --method comm
    python -m repro solve   --matrix system.mtx --method fsaie --filter 0.05
    python -m repro compare --generate catalog:thermal2 --machine a64fx
    python -m repro info    --matrix system.mtx
    python -m repro trace   --workload poisson3d --nparts 8 --output trace.json
    python -m repro chaos   --generate poisson2d:16 --ranks 4 --json chaos.json
    python -m repro conformance --generate poisson2d:24 --ladder 4,8,16
    python -m repro cache   --generate poisson2d:32 --line-bytes 64,256
    python -m repro serve   --generate poisson2d:24 --requests 32 --json serve.json

Matrix sources: ``--matrix FILE`` reads MatrixMarket; ``--generate SPEC``
builds a synthetic problem, where SPEC is one of

* ``poisson2d:N`` / ``poisson3d:N`` — Laplacian on an N^d grid,
* ``elasticity2d:NX,NY`` / ``elasticity3d:NX,NY,NZ`` — FEM stiffness,
* ``catalog:NAME`` / ``catalog-large:NAME`` — an evaluation-catalog entry.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import (
    FilterSpec,
    PrecondOptions,
    build_fsai,
    build_fsaie,
    build_fsaie_comm,
    check_comm_invariance,
    imbalance_index,
    pcg,
)
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.errors import ReproError
from repro.matgen import PAPER_RTOL, get_case, paper_rhs
from repro.perfmodel import MACHINES, CostModel
from repro.sparse import CSRMatrix, read_matrix_market
from repro.sparse.ops import is_symmetric

__all__ = ["main"]

_BUILDERS = {"fsai": build_fsai, "fsaie": build_fsaie, "comm": build_fsaie_comm}


def load_matrix(args) -> CSRMatrix:
    """Resolve ``--matrix`` / ``--generate`` into a CSR matrix."""
    if args.matrix:
        return read_matrix_market(args.matrix)
    spec = args.generate
    if spec is None:
        raise ReproError("provide --matrix FILE or --generate SPEC")
    kind, _, rest = spec.partition(":")
    if kind in ("catalog", "catalog-large"):
        return get_case(rest, large=kind.endswith("large")).build(args.scale)
    dims = [int(d) for d in rest.split(",")] if rest else []
    from repro import matgen

    if kind == "poisson2d":
        return matgen.poisson2d(*(dims or [16]))
    if kind == "poisson3d":
        return matgen.poisson3d(*(dims or [8]))
    if kind == "elasticity2d":
        return matgen.elasticity2d(*(dims or [8, 8]))
    if kind == "elasticity3d":
        return matgen.elasticity3d(*(dims or [4, 4, 4]))
    raise ReproError(f"unknown generator {kind!r}")


def _symmetric_matrix(args) -> CSRMatrix:
    """:func:`load_matrix` for the CG-based subcommands."""
    mat = load_matrix(args)
    if not is_symmetric(mat):
        raise ReproError("matrix must be symmetric (CG/FSAI requirement)")
    return mat


def _ints(text: str, flag: str, what: str) -> list[int]:
    """Parse a comma-separated integer option."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ReproError(f"{flag} expects comma-separated {what}, got {text!r}") from None


def _setup(args):
    mat = _symmetric_matrix(args)
    part = RowPartition.from_matrix(mat, args.ranks, seed=args.seed)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=args.seed), part)
    return mat, part, da, b


def _options(args) -> PrecondOptions:
    machine = MACHINES[args.machine]
    return PrecondOptions(
        line_bytes=machine.cache_line_bytes,
        filter=FilterSpec(args.filter, dynamic=not args.static),
    )


def cmd_solve(args) -> int:
    """``repro solve``: one system, one method, full report."""
    mat, part, da, b = _setup(args)
    pre = _BUILDERS[args.method](mat, part, _options(args))
    result = pcg(da, b, precond=pre, rtol=args.rtol, max_iterations=args.max_iterations)
    x = result.x.to_global()
    rel = np.linalg.norm(mat.spmv(x) - b.to_global()) / np.linalg.norm(b.to_global())
    model = CostModel(MACHINES[args.machine], threads_per_process=args.threads)
    t = result.iterations * model.iteration_cost(da, pre).total
    print(f"matrix           : {mat.nrows} rows, {mat.nnz} nnz, {args.ranks} ranks")
    print(f"preconditioner   : {pre.name} (pattern +{pre.nnz_increase_percent:.1f}% vs FSAI)")
    print(f"iterations       : {result.iterations} (converged={result.converged})")
    print(f"relative residual: {rel:.3e}")
    print(f"modeled time     : {t * 1e3:.3f} ms on {args.machine} "
          f"({args.threads} threads/process)")
    return 0 if result.converged else 1


def cmd_compare(args) -> int:
    """``repro compare``: FSAI vs FSAIE vs FSAIE-Comm side by side."""
    from repro.analysis import format_table, pct_decrease

    mat, part, da, b = _setup(args)
    model = CostModel(MACHINES[args.machine], threads_per_process=args.threads)
    rows = []
    results = {}
    for method, build in _BUILDERS.items():
        pre = build(mat, part, _options(args))
        res = pcg(da, b, precond=pre, rtol=args.rtol, max_iterations=args.max_iterations)
        t = res.iterations * model.iteration_cost(da, pre).total
        results[method] = (pre, res, t)
        rows.append(
            [
                pre.name,
                res.iterations,
                f"{pre.nnz_increase_percent:.1f}",
                f"{imbalance_index(pre.nnz_per_rank()):.3f}",
                f"{t * 1e3:.3f}",
            ]
        )
    base_t = results["fsai"][2]
    for row, method in zip(rows, _BUILDERS):
        row.append(f"{pct_decrease(base_t, results[method][2]):+.1f}")
    print(
        format_table(
            ["Method", "iterations", "%NNZ", "imb index", "modeled ms", "Δtime %"],
            rows,
            title=f"{mat.nrows} rows / {mat.nnz} nnz on {args.ranks} ranks, "
            f"{args.machine}, Filter {args.filter} "
            f"({'static' if args.static else 'dynamic'})",
        )
    )
    invariant = check_comm_invariance(results["fsai"][0], results["comm"][0])
    print(f"\ncommunication scheme unchanged by FSAIE-Comm: {invariant}")
    return 0


def cmd_export(args) -> int:
    """Write catalog matrices as MatrixMarket files."""
    from pathlib import Path

    from repro.matgen import table1_cases, table2_cases
    from repro.sparse import write_matrix_market

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = table2_cases() if args.large else table1_cases()
    if args.names:
        wanted = set(args.names.split(","))
        cases = [c for c in cases if c.name in wanted]
        missing = wanted - {c.name for c in cases}
        if missing:
            raise ReproError(f"unknown matrices: {sorted(missing)}")
    for case in cases:
        mat = case.build(args.scale)
        path = out_dir / f"{case.name}.mtx"
        write_matrix_market(path, mat, symmetric=True)
        print(f"{path}  ({mat.nrows} rows, {mat.nnz} nnz)")
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: instrumented build + solve, exported as a trace file.

    Records construction-phase spans (pattern, extension, filtering, factor),
    per-iteration solver spans and halo-exchange spans with byte counts, then
    writes them in Chrome ``trace_event`` form (loadable in ``about:tracing``
    / Perfetto) or the plain JSON document form.
    """
    from repro.instrument import tracing, write_chrome_trace, write_json_trace
    from repro.mpisim.tracker import CommTracker

    if args.workload:
        args.generate = args.workload
    args.ranks = args.nparts
    mat, part, da, b = _setup(args)
    tracker = CommTracker()
    with tracing() as (tracer, metrics):
        pre = _BUILDERS[args.method](mat, part, _options(args))
        result = pcg(
            da, b, precond=pre, rtol=args.rtol,
            max_iterations=args.max_iterations, tracker=tracker,
        )
    writer = write_chrome_trace if args.format == "chrome" else write_json_trace
    path = writer(args.output, tracer, metrics)
    halo_bytes = sum(int(s.tags["bytes"]) for s in tracer.by_name("halo.exchange"))
    print(f"trace            : {path} ({args.format}, {len(tracer)} spans)")
    print(f"matrix           : {mat.nrows} rows, {mat.nnz} nnz, {args.ranks} ranks")
    print(f"preconditioner   : {pre.name}")
    print(f"iterations       : {result.iterations} (converged={result.converged}, "
          f"{len(tracer.by_name('pcg.iteration'))} iteration spans)")
    print(f"halo traffic     : {halo_bytes} bytes in "
          f"{len(tracer.by_name('halo.exchange'))} exchanges "
          f"(tracker: {tracker.total_bytes} bytes)")
    return 0 if result.converged else 1


def cmd_timeline(args) -> int:
    """``repro timeline``: reconstruct the cross-rank timeline of an SPMD solve.

    Runs the preconditioned CG as an SPMD solve on the ``--machine`` model's
    clock under tracing (the clocked executor emits every rank's spans and
    messages from its ledger), merges the per-rank span streams into a
    :class:`~repro.observe.Timeline` in modeled seconds, and prints an ASCII
    per-rank Gantt chart with per-rank busy/wait/slack, the critical path
    through the halo/allreduce dependency graph, and its top-k edges.  ``--load``
    renders a previously saved timeline (or exported trace) instead;
    ``--json`` / ``--prom`` write the timeline document and the
    OpenMetrics exposition.
    """
    from repro.analysis import format_table
    from repro.instrument import tracing
    from repro.observe import Timeline, halo_critical_path, timeline_samples
    from repro.observe.prom import write_openmetrics

    collected: list[dict] = []
    if args.load:
        timeline = Timeline.load(args.load)
    else:
        from repro.dist.spmd import spmd_cg

        mat, part, da, b = _setup(args)
        pre = _BUILDERS[args.method](mat, part, _options(args))
        with tracing() as (tracer, metrics):
            _, iterations = spmd_cg(
                da, b, precond_pair=(pre.g, pre.gt),
                rtol=args.rtol, max_iterations=args.max_iterations,
                clock=MACHINES[args.machine].clock_model(args.threads),
            )
        timeline = Timeline.from_tracer(
            tracer,
            meta={
                "case": args.generate or args.matrix,
                "method": pre.name,
                "ranks": args.ranks,
                "iterations": iterations,
            },
        )
        collected = metrics.collect()
        static = halo_critical_path(pre.g.schedule)
        print(f"method           : {pre.name} ({iterations} iterations)")
        print(f"static {static.render()}")
    print(timeline.render_gantt(width=args.width, max_ranks=args.top_ranks))
    summary = timeline.summary(top_k=args.top_edges)
    rows = [
        [
            r,
            f"{summary['busy_seconds'][str(r)] * 1e3:.3f}",
            f"{summary['wait_seconds'][str(r)] * 1e3:.3f}",
            f"{summary['slack_seconds'][str(r)] * 1e3:.3f}",
        ]
        for r in timeline.ranks
    ]
    print(format_table(["rank", "busy ms", "wait ms", "slack ms"], rows))
    cp = summary["critical_path"]
    print(
        f"critical path    : {cp['length_seconds'] * 1e3:.3f} ms over "
        f"{cp['n_segments']} segments (makespan "
        f"{summary['makespan_seconds'] * 1e3:.3f} ms)"
    )
    for e in cp["top_edges"]:
        print(
            f"  edge {e['src']} -> {e['dst']}: {e['bytes']} B, "
            f"blocked {e['wait_seconds'] * 1e3:.3f} ms"
        )
    if args.json:
        print(f"timeline written : {timeline.save(args.json)}")
    if args.prom:
        samples = collected + timeline_samples(timeline)
        print(f"openmetrics      : {write_openmetrics(args.prom, samples)}")
    return 0


def cmd_explain(args) -> int:
    """``repro explain``: attribution verdict for FSAI vs FSAIE vs FSAIE-Comm.

    Builds and solves with each pattern, feeds achieved iterations, the
    perfmodel prediction, cachesim misses, per-line free-ride ledgers and
    the invariance audit into :func:`repro.observe.attribute`, and prints
    the verdict with named suspects when achieved diverges from predicted —
    ``cache-reuse-not-realized`` citing the ledger's actual line evidence.
    """
    from repro.cachesim import precond_x_misses_per_rank
    from repro.core.fsai import fsai_pattern
    from repro.observe import FreeRideLedger, MethodFacts, attribute

    mat, part, da, b = _setup(args)
    machine = MACHINES[args.machine]
    model = CostModel(machine, threads_per_process=args.threads)
    options = _options(args)
    base_pattern = fsai_pattern(mat, options.fsai)
    base_g = base_pattern.to_csr()
    base_gt = base_pattern.transpose().to_csr()
    preconds = {}
    facts = []
    ledgers = {}
    for method, build in _BUILDERS.items():
        pre = build(mat, part, options)
        preconds[method] = pre
        result = pcg(
            da, b, precond=pre, rtol=args.rtol, max_iterations=args.max_iterations
        )
        l1 = machine.l1.scaled(args.threads)
        ledger = FreeRideLedger(
            method=pre.name, line_bytes=l1.line_bytes,
            base_g=base_g, base_gt=base_gt,
        )
        misses = precond_x_misses_per_rank(pre.g, pre.gt, l1, ledger=ledger)
        ledgers[pre.name] = ledger
        invariant = None
        if method == "comm":
            invariant = check_comm_invariance(preconds["fsai"], pre)
        facts.append(
            MethodFacts.from_objects(
                pre,
                result,
                cost=model.iteration_cost(da, pre, precond_misses=misses),
                misses=misses,
                invariant=invariant,
            )
        )
    verdict = attribute(
        facts,
        meta={
            "case": args.generate or args.matrix,
            "ranks": args.ranks,
            "machine": args.machine,
            "filter": args.filter,
        },
        ledgers=ledgers,
    )
    print(verdict.render())
    print()
    print("free-ride ledgers (extension x-accesses riding resident lines):")
    for name, ledger in ledgers.items():
        if ledger.ext_accesses:
            print(
                f"  {name:<12}: {ledger.free_rides}/{ledger.ext_accesses} "
                f"({ledger.free_ride_fraction:.1%}) free at "
                f"{ledger.line_bytes} B — local "
                f"{ledger.free_ride_fraction_local:.1%}, halo "
                f"{ledger.free_ride_fraction_halo:.1%}"
            )
        else:
            print(f"  {name:<12}: no extension entries (baseline pattern)")
    if args.json:
        print(f"\nverdict written: {verdict.save(args.json)}")
    return 0


def cmd_conformance(args) -> int:
    """``repro conformance``: α–β model predictions vs streamed measurements.

    Runs :func:`repro.perfmodel.ladders.conformance_ladder`: strong-scales
    one matrix over a ladder of rank counts on the simulated SPMD runtime
    with streaming telemetry, compares the model's per-phase predictions with
    the streamed measurements at each rung, and re-proves the paper's §4
    halo-schedule invariance (``G`` and ``Gᵀ``) *with telemetry on*.  Prints
    the per-phase ratio table with named divergence verdicts.  ``--json``
    saves the versioned ``repro-conformance`` document; ``--prom`` writes
    the OpenMetrics exposition.  Exit code 1 when a structural fact fails
    (invariance broken, or no telemetry traffic observed); divergence
    verdicts alone are informational.
    """
    from repro.observe import conformance_samples
    from repro.observe.prom import write_openmetrics
    from repro.perfmodel.ladders import STRUCTURAL_FLAGS, conformance_ladder

    mat = _symmetric_matrix(args)
    ladder = _ints(args.ladder, "--ladder", "rank counts")
    try:
        rank_sample = int(args.rank_sample)
    except ValueError:
        rank_sample = args.rank_sample  # "all" / "sqrt" / "first:K" / "stride:K"
    report, clusters = conformance_ladder(
        mat, ladder, machine=MACHINES[args.machine], method=args.method,
        options=_options(args), threads=args.threads, seed=args.seed,
        rhs_seed=args.seed, rank_sample=rank_sample, rtol=args.rtol,
        max_iterations=args.max_iterations,
        share_tolerance=args.share_tolerance,
        meta={
            "case": args.generate or args.matrix,
            "method": args.method,
            "machine": args.machine,
            "threads": args.threads,
            "ladder": ladder,
            "rank_sample": args.rank_sample,
            "filter": args.filter,
        },
    )
    for entry in report.entries:
        print(f"ranks {entry.ranks:>5}: {entry.iterations} iterations, "
              f"{entry.sampled_ranks} sampled ranks, "
              f"payload {entry.telemetry_payload_bytes} B, "
              f"invariant={entry.extras['halo_invariant']}")
    print()
    print(report.render())
    if args.json:
        print(f"\nconformance written: {report.save(args.json)}")
    if args.prom:
        samples = conformance_samples(report)
        samples += clusters[-1].to_prom_samples()  # last rung's histograms
        print(f"openmetrics        : {write_openmetrics(args.prom, samples)}")
    held = all(e.extras[f] for e in report.entries for f in STRUCTURAL_FLAGS)
    return 0 if held else 1


def cmd_cache(args) -> int:
    """``repro cache``: per-line free-ride ledgers and conformance verdicts.

    Runs :func:`repro.perfmodel.ladders.cache_ladder`: replays the
    ``Gᵀ(Gx)`` access stream of every ladder method through the attributed
    cache simulator at each requested line geometry, classifying every
    extension-entry ``x`` access as free ride vs new fill against the
    baseline FSAI pattern, and confronts the measured fill traffic with the
    perfmodel's ``x``-read memory term.  Prints the conformance table with
    the paper's gated cache claims (free-ride majority, larger lines ⇒
    larger gains, misses-per-nnz not worse than FSAI); ``--json`` saves the
    versioned ``repro-cache-conformance`` document, ``--prom`` the
    OpenMetrics exposition including reuse-distance histograms.  Exit code
    1 when a gated claim fails.
    """
    from repro.observe import cache_conformance_samples, ledger_samples
    from repro.observe.prom import write_openmetrics
    from repro.perfmodel.ladders import cache_ladder

    mat, part, _, _ = _setup(args)
    methods = [m.strip() for m in args.ladder.split(",") if m.strip()]
    unknown = [m for m in methods if m not in _BUILDERS]
    if unknown:
        raise ReproError(
            f"--ladder expects methods from {sorted(_BUILDERS)}, got {unknown}"
        )
    case = args.generate or args.matrix
    report, ledgers = cache_ladder(
        mat, part, machine=MACHINES[args.machine], methods=methods,
        line_sizes=_ints(args.line_bytes, "--line-bytes", "byte counts"),
        threads=args.threads,
        filter=FilterSpec(args.filter, dynamic=not args.static),
        meta={"case": case, "matrix": case, "threads": args.threads,
              "filter": args.filter},
    )
    print(report.render())
    if args.json:
        print(f"\ncache conformance written: {report.save(args.json)}")
    if args.prom:
        samples = cache_conformance_samples(report)
        for ledger in ledgers:
            samples += ledger_samples(ledger)
        print(f"openmetrics              : {write_openmetrics(args.prom, samples)}")
    failed = [c for c in report.claims() if not c["ok"]]
    return 1 if failed else 0


def cmd_bench(args) -> int:
    """``repro bench``: run the kernel microbenchmarks, write BENCH_kernels.json."""
    from repro.kernels.bench import DEFAULT_SIZES, format_summary, run_suite, write_suite

    sizes = _ints(args.sizes, "--sizes", "grid sizes") if args.sizes else DEFAULT_SIZES
    result = run_suite(sizes=sizes, reps=args.reps, quick=args.quick)
    path = write_suite(result, args.output)
    print(format_summary(result))
    print(f"\nwritten: {path}")
    return 0


def cmd_report(args) -> int:
    """``repro report``: render or compare unified run reports.

    ``PATH`` may be a saved :class:`~repro.observe.RunReport`, an exported
    ``repro-trace`` document, or a ``BENCH_<suite>.json`` document — anything
    :meth:`RunReport.load` understands.  With ``--compare OTHER``, ``PATH``
    is the baseline and the exit code reflects the regression verdict
    (0 pass, 1 fail), making the subcommand usable directly as a CI gate.
    """
    from repro.observe import RunReport

    report = RunReport.load(args.path)
    if args.compare:
        other = RunReport.load(args.compare)
        tolerances = {}
        for spec in args.tol or []:
            name, sep, value = spec.partition("=")
            try:
                tolerances[name] = float(value)
            except ValueError:
                raise ReproError(
                    f"--tol expects NAME=RELATIVE_TOLERANCE, got {spec!r}"
                ) from None
            if not sep or not name:
                raise ReproError(f"--tol expects NAME=RELATIVE_TOLERANCE, got {spec!r}")
        comparison = report.compare(
            other, tolerances, default_rel=args.default_rel
        )
        print(comparison.render(only_failures=args.only_failures))
        return 0 if comparison.passed else 1
    rendered = report.to_markdown() if args.format == "markdown" else report.to_text()
    print(rendered, end="")
    return 0


def cmd_chaos(args) -> int:
    """``repro chaos``: inject a seeded fault menu, verify the solver survives.

    Runs the clean baseline and every scenario of the selected menu
    (message delays, drops, duplicates, bit-flips, a transient rank
    stall), printing the survival table and — with ``--json`` — writing
    the versioned ``repro-chaos-report`` artifact that
    ``scripts/check_resilience.py`` gates on.  Exit code 0 when every
    scenario met its contract, 1 otherwise.
    """
    from repro.resilience import quick_menu, run_chaos, standard_menu

    mat = _symmetric_matrix(args)
    builder = None
    if args.method != "none":
        build = _BUILDERS[args.method]
        options = _options(args)

        def builder(a, part):
            return build(a, part, options)

    menu_fn = quick_menu if args.menu == "quick" else standard_menu
    report = run_chaos(
        mat,
        ranks=args.ranks,
        seed=args.seed,
        rtol=args.rtol,
        max_iterations=args.max_iterations,
        menu=menu_fn(args.ranks),
        engine=args.engine,
        precond_builder=builder,
        matrix_label=args.generate or args.matrix or "?",
    )
    print(report.render())
    if args.json:
        print(f"\nchaos report written: {report.save(args.json)}")
    return 0 if report.survived else 1


def cmd_serve(args) -> int:
    """``repro serve``: solve same-structure systems through the set-up cache.

    Builds ``--variants`` same-structure/different-values copies of the
    source system (diagonal shifts, all SPD) and solves ``--requests`` of
    them, cycling through the variants, with
    :meth:`repro.serve.ArtifactCache.solve_many`: the first solve builds
    the set-up, the rest reuse it, and every new values variant is audited
    against the cached halo schedule (§4).  Prints the cache counts as a
    run report; ``--json`` saves it (``repro-run-report``) for ``repro
    report``.  Exit code 0 when every solve converged, 1 otherwise.
    """
    from repro.observe import RunReport
    from repro.serve import ArtifactCache, value_variants

    mats = value_variants(_symmetric_matrix(args), args.variants)
    cache = ArtifactCache(
        ranks=args.ranks,
        method=args.method,
        line_bytes=MACHINES[args.machine].cache_line_bytes,
        filter_value=args.filter,
        dynamic=not args.static,
        seed=args.seed,
    )
    outcomes = cache.solve_many(
        [mats[i % len(mats)] for i in range(args.requests)],
        rtol=args.rtol,
        max_iterations=args.max_iterations,
    )
    report = RunReport(
        meta={"label": "serve", "matrix": args.generate or args.matrix,
              "method": args.method, "ranks": args.ranks,
              "requests": args.requests, "variants": len(mats)},
        metrics={f"serve.{key}": float(value) for key, value in cache.counts.items()},
    )
    report.add_metric("serve.iterations_total", sum(o.iterations for o in outcomes))
    print(report.to_text(), end="")
    if args.json:
        print(f"\nserve report written: {report.save(args.json)}")
    return 0 if all(o.converged for o in outcomes) else 1


def cmd_info(args) -> int:
    """``repro info``: structural statistics of a matrix."""
    from repro.order import bandwidth

    mat = load_matrix(args)
    diag = mat.diagonal()
    print(f"rows        : {mat.nrows}")
    print(f"nnz         : {mat.nnz} ({mat.nnz / max(mat.nrows, 1):.1f} per row)")
    print(f"symmetric   : {is_symmetric(mat)}")
    print(f"bandwidth   : {bandwidth(mat)}")
    print(f"diag range  : [{diag.min():.3e}, {diag.max():.3e}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="FSAIE-Comm reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_solver: bool):
        src = p.add_mutually_exclusive_group()
        src.add_argument("--matrix", help="MatrixMarket file")
        src.add_argument("--generate", help="synthetic spec, e.g. poisson3d:12")
        p.add_argument("--scale", type=float, default=1.0, help="catalog size scale")
        if with_solver:
            p.add_argument("--ranks", type=int, default=4)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--machine", choices=sorted(MACHINES), default="skylake")
            p.add_argument("--threads", type=int, default=8,
                           help="threads per process (paper default: 8)")
            p.add_argument("--filter", type=float, default=0.01)
            p.add_argument("--static", action="store_true",
                           help="static filtering instead of dynamic (Alg. 4)")
            p.add_argument("--rtol", type=float, default=PAPER_RTOL)
            p.add_argument("--max-iterations", type=int, default=50_000)

    p_solve = sub.add_parser("solve", help="solve one system with one method")
    add_common(p_solve, with_solver=True)
    p_solve.add_argument("--method", choices=sorted(_BUILDERS), default="comm")
    p_solve.set_defaults(fn=cmd_solve)

    p_cmp = sub.add_parser("compare", help="FSAI vs FSAIE vs FSAIE-Comm")
    add_common(p_cmp, with_solver=True)
    p_cmp.set_defaults(fn=cmd_compare)

    p_trace = sub.add_parser(
        "trace", help="record an instrumented build + solve as a trace file"
    )
    add_common(p_trace, with_solver=True)
    p_trace.add_argument("--workload", help="synthetic spec (alias of --generate)")
    p_trace.add_argument("--nparts", type=int, default=8,
                         help="number of ranks (overrides --ranks)")
    p_trace.add_argument("--method", choices=sorted(_BUILDERS), default="comm")
    p_trace.add_argument("--format", choices=("chrome", "json"), default="chrome",
                         help="chrome trace_event file or plain JSON document")
    p_trace.add_argument("--output", default="trace.json", help="output path")
    p_trace.set_defaults(fn=cmd_trace)

    p_tl = sub.add_parser(
        "timeline",
        help="reconstruct the cross-rank timeline of an SPMD solve "
        "(ASCII Gantt, critical path, wait histogram)",
    )
    add_common(p_tl, with_solver=True)
    p_tl.add_argument("--method", choices=sorted(_BUILDERS), default="comm")
    p_tl.add_argument("--load", help="render a saved timeline/trace instead of running")
    p_tl.add_argument("--json", help="write the timeline document to this path")
    p_tl.add_argument("--prom", help="write OpenMetrics text exposition to this path")
    p_tl.add_argument("--width", type=int, default=72, help="Gantt chart width")
    p_tl.add_argument("--top-edges", type=int, default=5,
                      help="number of critical edges to report")
    p_tl.add_argument(
        "--top-ranks", type=int, default=None, metavar="N",
        help="cap the Gantt chart at the N ranks with the most wait time "
             "(a footer names how many ranks were elided)",
    )
    p_tl.set_defaults(fn=cmd_timeline)

    p_conf = sub.add_parser(
        "conformance",
        help="α–β model-conformance verdicts: predicted vs streamed "
             "per-phase seconds over a strong-scaled rank ladder",
    )
    add_common(p_conf, with_solver=True)
    p_conf.add_argument("--method", choices=sorted(_BUILDERS), default="comm")
    p_conf.add_argument("--ladder", default="4,8,16",
                        help="comma-separated rank counts to strong-scale over")
    p_conf.add_argument(
        "--rank-sample", default="8",
        help="full-span sampling policy: K, 'all', 'sqrt', 'first:K', "
             "'stride:K', or 'none' (histograms stream on every rank "
             "regardless)",
    )
    p_conf.add_argument("--share-tolerance", type=float, default=0.25,
                        help="phase-share drift that triggers a verdict")
    p_conf.add_argument("--json", help="write the conformance document here")
    p_conf.add_argument("--prom", help="write OpenMetrics text exposition here")
    p_conf.set_defaults(fn=cmd_conformance)

    p_expl = sub.add_parser(
        "explain",
        help="performance-attribution verdict: achieved vs predicted per pattern",
    )
    add_common(p_expl, with_solver=True)
    p_expl.add_argument("--json", help="write the attribution verdict to this path")
    p_expl.set_defaults(fn=cmd_explain)

    p_cache = sub.add_parser(
        "cache",
        help="per-line free-ride ledgers and cache-conformance verdicts "
             "over a method ladder at one or more line geometries",
    )
    add_common(p_cache, with_solver=True)
    p_cache.add_argument(
        "--ladder", default="fsai,fsaie,comm",
        help="comma-separated method ladder to profile",
    )
    p_cache.add_argument(
        "--line-bytes", default="64,256",
        help="comma-separated cache-line geometries to replay at",
    )
    p_cache.add_argument("--json", help="write the cache-conformance document here")
    p_cache.add_argument("--prom", help="write OpenMetrics text exposition here")
    p_cache.set_defaults(fn=cmd_cache)

    p_rep = sub.add_parser(
        "report", help="render or compare unified run reports (JSON)"
    )
    p_rep.add_argument(
        "path", help="run-report JSON (also accepts trace/bench documents)"
    )
    p_rep.add_argument("--format", choices=("text", "markdown"), default="text")
    p_rep.add_argument(
        "--compare", metavar="OTHER",
        help="diff OTHER against PATH (PATH is the baseline); exit 1 on regression",
    )
    p_rep.add_argument(
        "--tol", action="append", metavar="NAME=REL",
        help="per-metric relative tolerance for --compare (repeatable)",
    )
    p_rep.add_argument(
        "--default-rel", type=float, default=0.0,
        help="relative tolerance for metrics without an explicit --tol",
    )
    p_rep.add_argument(
        "--only-failures", action="store_true",
        help="print only out-of-tolerance rows of the comparison",
    )
    p_rep.set_defaults(fn=cmd_report)

    p_chaos = sub.add_parser(
        "chaos",
        help="inject a seeded fault menu and verify the solver survives",
    )
    add_common(p_chaos, with_solver=True)
    p_chaos.add_argument("--method", choices=["none", *sorted(_BUILDERS)],
                         default="fsai", help="preconditioner ('none' for plain CG)")
    p_chaos.add_argument("--menu", choices=("standard", "quick"), default="standard",
                         help="scenario menu (quick = 2-scenario smoke subset)")
    p_chaos.add_argument("--engine", choices=("bsp", "spmd"), default="bsp",
                         help="deterministic BSP solver or message-passing SPMD runtime")
    p_chaos.add_argument("--json", help="write the versioned chaos report here")
    p_chaos.set_defaults(fn=cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="solve same-structure systems through the fingerprint-keyed "
             "set-up cache",
    )
    add_common(p_serve, with_solver=True)
    p_serve.add_argument("--method", choices=sorted(_BUILDERS), default="comm")
    p_serve.add_argument("--requests", type=int, default=16,
                         help="number of systems to solve")
    p_serve.add_argument("--variants", type=int, default=4,
                         help="same-structure value variants of the system")
    p_serve.add_argument("--json", help="write the run report here")
    p_serve.set_defaults(fn=cmd_serve)

    p_info = sub.add_parser("info", help="matrix statistics")
    add_common(p_info, with_solver=False)
    p_info.set_defaults(fn=cmd_info)

    p_bench = sub.add_parser(
        "bench", help="kernel microbenchmarks (plans, workspace, batched setup)"
    )
    p_bench.add_argument("--output", default="BENCH_kernels.json",
                         help="result JSON path")
    p_bench.add_argument("--sizes", help="comma-separated 2-D grid sizes, e.g. 32,64,96")
    p_bench.add_argument("--reps", type=int, default=5, help="repetitions (best-of)")
    p_bench.add_argument("--quick", action="store_true",
                         help="smoke-test sizes/reps (numbers indicative only)")
    p_bench.set_defaults(fn=cmd_bench)

    p_exp = sub.add_parser("export", help="write catalog matrices as .mtx files")
    p_exp.add_argument("--output", default="matrices", help="output directory")
    p_exp.add_argument("--large", action="store_true", help="export the Table 2 set")
    p_exp.add_argument("--names", help="comma-separated subset of matrix names")
    p_exp.add_argument("--scale", type=float, default=1.0)
    p_exp.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
