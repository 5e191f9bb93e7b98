"""Strong scaling — the §5.5.1 regime characterised.

The paper's large-scale runs (up to 32 768 cores) operate at ~16k nonzeros
per CPU, where communication dominates each iteration.  This benchmark
strong-scales one problem across rank counts and verifies the regime change
that motivates communication-aware extension:

* total halo volume grows with the rank count,
* FSAIE-Comm's modeled advantage over FSAI widens (or holds) as ranks grow,
* the communication volume of the Comm preconditioner equals FSAI's at
  every scale.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table, pct_decrease
from repro.core import build_fsai, build_fsaie_comm, pcg
from repro.dist import DistMatrix, DistVector, RowPartition, spmd_pipelined_pcg
from repro.matgen import PAPER_RTOL, paper_rhs, poisson3d
from repro.mpisim import CommTracker
from repro.perfmodel import ZEN2, CostModel

RANKS = (2, 4, 8, 16, 32)
THREADS = 8


def test_strong_scaling_regime(benchmark):
    mat = poisson3d(14)
    rows = []
    gains = []
    halos = []
    for ranks in RANKS:
        part = RowPartition.from_matrix(mat, ranks, seed=ranks)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, 9), part)
        model = CostModel(ZEN2, threads_per_process=THREADS)
        times = {}
        for build in (build_fsai, build_fsaie_comm):
            pre = build(mat, part)
            res = pcg(da, b, precond=pre.apply, rtol=PAPER_RTOL)
            times[pre.name] = res.iterations * model.iteration_cost(da, pre).total
            if build is build_fsaie_comm:
                fsai_sched = build_fsai(mat, part).g.schedule
                assert pre.g.schedule == fsai_sched  # comm equality per scale
        halo = da.schedule.total_halo_values()
        gain = pct_decrease(times["FSAI"], times["FSAIE-Comm"])
        halos.append(halo)
        gains.append(gain)
        rows.append([ranks, halo, f"{times['FSAI'] * 1e3:.3f}",
                     f"{times['FSAIE-Comm'] * 1e3:.3f}", f"{gain:+.1f}"])

    print()
    print(
        format_table(
            ["ranks", "halo values", "t FSAI (ms)", "t Comm (ms)", "Δtime %"],
            rows,
            title="Strong scaling — Poisson 14³, Zen 2 model, 8 threads/process",
        )
    )

    # halos grow with rank count
    assert all(b >= a for a, b in zip(halos, halos[1:]))
    # the modeled advantage at the largest scale beats the smallest scale
    assert gains[-1] >= gains[0]
    assert gains[-1] > 0

    # The largest configuration re-runs on the SPMD engine:
    # the same FSAI-preconditioned solve over real (simulated) message
    # passing must reach the paper tolerance.
    part = RowPartition.from_matrix(mat, RANKS[-1], seed=RANKS[-1])
    da = DistMatrix.from_global(mat, part)
    b = DistVector.from_global(paper_rhs(mat, 9), part)
    pre = build_fsai(mat, part)
    tracker = CommTracker()
    x, iters = spmd_pipelined_pcg(
        da, b, rtol=PAPER_RTOL, precond_pair=(pre.g, pre.gt),
        tracker=tracker,
    )
    rhs = b.to_global()
    rel = np.linalg.norm(rhs - mat.spmv(x.to_global())) / np.linalg.norm(rhs)
    assert rel <= 10 * PAPER_RTOL
    assert 0 < iters
    assert tracker.total_messages > 0  # the solve really ran over the wire

    pre = build_fsaie_comm(mat, part)
    benchmark(lambda: pre.apply(b))
