"""Ablation — partition quality.

FSAIE-Comm's premise (§3): "partitions typically minimise the amount of
communication and, therefore, reduce the number of halo entries as much as
possible", so halo extensions stay small relative to local ones.  Compare
the built-in multilevel partitioner against naive contiguous strips:

* the multilevel partition must produce smaller halos,
* with smaller halos, the halo share of FSAIE-Comm's additions shrinks,
* the solver's communication volume per iteration drops.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core import ExtensionMode, extend_dist_pattern, fsai_pattern, pcg, build_fsaie_comm
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.matgen import PAPER_RTOL, get_case, paper_rhs
from repro.mpisim import CommTracker

CASES = ["thermal2", "ecology2", "tmt_sym", "PFlow_742"]
RANKS = 6


def _study(name: str):
    case = get_case(name)
    mat = case.build()
    out = {}
    for label, part in (
        ("strips", RowPartition.contiguous(mat.nrows, RANKS)),
        ("multilevel", RowPartition.from_matrix(mat, RANKS, seed=case.case_id)),
    ):
        da = DistMatrix.from_global(mat, part)
        halo = da.schedule.total_halo_values()
        base = fsai_pattern(mat)
        dist_pat = DistMatrix.from_global(base.to_csr(), part)
        ext = extend_dist_pattern(dist_pat, 64, ExtensionMode.COMM)
        halo_added = int(ext.n_halo_added.sum())
        local_added = int(ext.n_local_added.sum())
        pre = build_fsaie_comm(mat, part)
        b = DistVector.from_global(paper_rhs(mat, 1), part)
        tracker = CommTracker()
        res = pcg(da, b, precond=pre.apply, rtol=PAPER_RTOL, tracker=tracker)
        out[label] = {
            "halo": halo,
            "halo_added": halo_added,
            "local_added": local_added,
            "bytes_per_iter": tracker.total_bytes / max(res.iterations, 1),
        }
    return out


def test_ablation_partition_quality(benchmark):
    rows = []
    wins_halo = 0
    wins_bytes = 0
    for name in CASES:
        study = _study(name)
        s, m = study["strips"], study["multilevel"]
        rows.append(
            [
                name,
                s["halo"],
                m["halo"],
                f"{s['halo_added']}/{s['local_added']}",
                f"{m['halo_added']}/{m['local_added']}",
                f"{s['bytes_per_iter']:,.0f}",
                f"{m['bytes_per_iter']:,.0f}",
            ]
        )
        wins_halo += m["halo"] <= s["halo"]
        wins_bytes += m["bytes_per_iter"] <= s["bytes_per_iter"]

    print()
    print(
        format_table(
            ["Matrix", "halo(strip)", "halo(ML)", "added h/l (strip)",
             "added h/l (ML)", "B/iter (strip)", "B/iter (ML)"],
            rows,
            title=f"Ablation — partitioner quality ({RANKS} ranks, FSAIE-Comm)",
        )
    )

    # the multilevel partitioner should win on most matrices
    assert wins_halo >= len(CASES) - 1
    assert wins_bytes >= len(CASES) - 1

    case = get_case(CASES[0])
    mat = case.build()
    part = RowPartition.from_matrix(mat, RANKS, seed=case.case_id)
    pre = build_fsaie_comm(mat, part)
    b = DistVector.from_global(paper_rhs(mat, 1), part)
    benchmark(lambda: pre.apply(b))
