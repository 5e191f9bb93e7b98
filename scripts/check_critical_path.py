#!/usr/bin/env python
"""CI gate: the paper's §4 communication claim, stated in critical paths.

On the 2-D stencil acceptance case this script asserts four facts that
together pin down FSAIE-Comm's contract:

1. **Halo critical path identity** — the static
   :func:`repro.observe.halo_critical_path` of FSAIE-Comm's ``G`` *and*
   ``Gᵀ`` schedules is edge-for-edge, byte-for-byte identical to FSAI's.
   The extension may grow the pattern but must not add a single wire byte.
2. **The extension still helps** — FSAIE-Comm converges in strictly fewer
   PCG iterations than FSAI on this case, and the attribution explainer
   reports the reduction with no suspects against FSAIE-Comm.
3. **Dynamic filtering earns its keep** — building the comm pattern with
   filtering disabled yields a strictly larger preconditioner imbalance
   (the spread of the cost model's per-rank ``Gᵀ(G·v)`` seconds, the load
   Alg. 4 balances) than the dynamically filtered build.
4. **Timeline reconstruction is sound and exact** — an SPMD solve traced on
   the Skylake clock model yields a timeline in modeled seconds that
   satisfies ``max per-rank busy ≤ critical path ≤ makespan``, and a second
   run reproduces the critical path to the last digit (the engine is a pure
   function of its inputs; nothing in the timeline is host wall clock).

Usage::

    PYTHONPATH=src python scripts/check_critical_path.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core import (  # noqa: E402
    FilterSpec,
    build_fsai,
    build_fsaie_comm,
    pcg,
)
from repro.dist import DistMatrix, DistVector, RowPartition  # noqa: E402
from repro.dist.spmd import spmd_cg  # noqa: E402
from repro.instrument import tracing  # noqa: E402
from repro.matgen import PAPER_RTOL, paper_rhs, poisson2d  # noqa: E402
from repro.observe import (  # noqa: E402
    MethodFacts,
    Timeline,
    attribute,
    halo_critical_path,
)
from repro.perfmodel import SKYLAKE, CostModel  # noqa: E402

GRID = 16
RANKS = 4
SEED = 7
RHS_SEED = 3


def fail(msg: str) -> int:
    print(f"FAIL: {msg}", file=sys.stderr)
    return 1


def main() -> int:
    mat = poisson2d(GRID)
    part = RowPartition.from_matrix(mat, RANKS, seed=SEED)
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, seed=RHS_SEED), part)

    fsai = build_fsai(mat, part)
    comm = build_fsaie_comm(mat, part, filter=FilterSpec(0.01, dynamic=True))

    # 1. static halo critical paths must be identical, G and Gᵀ alike
    for attr in ("g", "gt"):
        base = halo_critical_path(getattr(fsai, attr).schedule)
        ext = halo_critical_path(getattr(comm, attr).schedule)
        if base != ext:
            return fail(
                f"halo critical path of {attr.upper()} differs:\n"
                f"  FSAI       {base.render()}\n  FSAIE-Comm {ext.render()}"
            )
        print(f"ok: {attr.upper()} {base.render()}")

    # 2. fewer iterations, clean attribution verdict
    res_fsai = pcg(da, b, precond=fsai, rtol=PAPER_RTOL, max_iterations=5000)
    res_comm = pcg(da, b, precond=comm, rtol=PAPER_RTOL, max_iterations=5000)
    if res_comm.iterations >= res_fsai.iterations:
        return fail(
            f"no iteration reduction: FSAI {res_fsai.iterations}, "
            f"FSAIE-Comm {res_comm.iterations}"
        )
    verdict = attribute(
        [
            MethodFacts.from_objects(fsai, res_fsai),
            MethodFacts.from_objects(comm, res_comm, invariant=True),
        ],
        meta={"case": f"poisson2d:{GRID}", "ranks": RANKS},
    )
    reduction = verdict.iteration_reduction_percent("FSAIE-Comm")
    comm_suspects = [s.name for s in verdict.suspects if s.method == "FSAIE-Comm"]
    if reduction is None or reduction <= 0:
        return fail(f"explainer reports no reduction ({reduction})")
    if comm_suspects:
        return fail(f"explainer raised suspects against FSAIE-Comm: {comm_suspects}")
    print(
        f"ok: FSAIE-Comm {res_comm.iterations} vs FSAI {res_fsai.iterations} "
        f"iterations ({reduction:+.1f}%), suspects clean"
    )

    # 3. unfiltered pattern must show strictly worse preconditioner imbalance
    # (the whole iteration's waits on this case are set by halo asymmetry)
    unfiltered = build_fsaie_comm(mat, part, filter=FilterSpec(0.0, dynamic=False))
    model = CostModel(SKYLAKE)
    spread = {
        name: np.ptp(model.iteration_cost(da, pre).per_rank["precond"]) * 1e6
        for name, pre in (("dynamic", comm), ("unfiltered", unfiltered))
    }
    if not spread["unfiltered"] > spread["dynamic"]:
        return fail(
            f"dynamic filtering did not reduce the preconditioner imbalance "
            f"(unfiltered {spread['unfiltered']:.3f}, "
            f"dynamic {spread['dynamic']:.3f} us per apply)"
        )
    print(
        f"ok: preconditioner imbalance unfiltered {spread['unfiltered']:.3f} "
        f"> dynamic {spread['dynamic']:.3f} us per apply on {SKYLAKE.name}"
    )

    # 4. reconstructed SPMD timeline obeys its bracketing invariant, exactly
    def traced_timeline():
        with tracing() as (tracer, _):
            _, its = spmd_cg(
                da, b, precond_pair=(comm.g, comm.gt),
                rtol=PAPER_RTOL, max_iterations=500, clock=SKYLAKE.clock_model(),
            )
        return Timeline.from_tracer(tracer), its

    timeline, iterations = traced_timeline()
    cp = timeline.critical_path()
    max_busy = max(timeline.busy_seconds().values())
    if not (max_busy <= cp.length + 1e-12 and cp.length <= timeline.makespan + 1e-12):
        return fail(
            f"critical path {cp.length:.6f}s outside "
            f"[max busy {max_busy:.6f}s, makespan {timeline.makespan:.6f}s]"
        )
    again = traced_timeline()[0]
    if (again.critical_path().length, again.makespan) != (cp.length, timeline.makespan):
        return fail(
            f"timeline is not reproducible: critical path {cp.length!r} then "
            f"{again.critical_path().length!r}"
        )
    print(
        f"ok: timeline ({iterations} iterations, modeled on {SKYLAKE.name}) "
        f"max busy {max_busy * 1e6:.2f} us ≤ critical path {cp.length * 1e6:.2f} us "
        f"≤ makespan {timeline.makespan * 1e6:.2f} us, identical on a second run"
    )

    print("OK: communication invariance holds on the critical path")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
