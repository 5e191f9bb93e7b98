"""Alg. 3 and Alg. 4 over every rank at once are bitwise the per-rank code.

``extend_dist_pattern`` extends every rank's block of the pattern in one
pass over the stacked arrays, with the rank as the leading key, and
``compute_dynamic_filters`` bisects every rank's filter at once.  The
oracle (``tests/extension_oracle.py``) is what each rank computes alone:
the stacked result must hold each rank's rows and columns in the oracle's
order, with its local and halo counts.  The factors these feed, and the §4
invariance verdicts, are pinned by digest as the per-rank code built them
(``tests/fixtures/extension_parent_digests.json``, written by
``python tests/test_extension_oracle.py --record PATH``).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import extension_oracle as oracle
from repro.core import (
    ExtensionMode,
    ExtensionWorkspace,
    FilterSpec,
    build_fsai,
    build_fsaie,
    build_fsaie_comm,
    check_comm_invariance,
    compute_dynamic_filters,
    extend_dist_pattern,
    fsai_pattern,
)
from repro.dist import DistMatrix, RowPartition
from repro.matgen import elasticity3d, poisson2d
from repro.partition import block_partition_2d
from repro.sparse import CSRMatrix

FIXTURE = Path(__file__).parent / "fixtures" / "extension_parent_digests.json"


def block_diagonal(*blocks: CSRMatrix) -> CSRMatrix:
    rows, cols, vals, at = [], [], [], 0
    for b in blocks:
        r, c, v = b.to_coo()
        rows.append(r + at), cols.append(c + at), vals.append(v)
        at += b.nrows
    return CSRMatrix.from_coo((at, at), np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))


def random_owner(n: int, nparts: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(np.r_[np.arange(nparts), rng.integers(0, nparts, n - nparts)])


def strips(mat: CSRMatrix, nparts: int):
    return mat, RowPartition.contiguous(mat.nrows, nparts).owner, nparts


#: name -> (matrix, owner map, ranks), built on demand
CASES = {
    "one_rank": lambda: (poisson2d(10), np.zeros(100, dtype=np.int64), 1),
    "strips4": lambda: strips(poisson2d(16), 4),
    "strips15": lambda: strips(poisson2d(16), 15),
    "blocks3x3": lambda: (poisson2d(20), block_partition_2d(20, 20, 3, 3), 9),
    "random7": lambda: (poisson2d(14), random_owner(196, 7, 5), 7),
    "no_halo_rank": lambda: (
        block_diagonal(poisson2d(4), poisson2d(6)),
        np.r_[np.zeros(16, dtype=np.int64), block_partition_2d(6, 6, 3, 1) + 1], 4),
    "elasticity_strips3": lambda: strips(elasticity3d(3, 3, 4), 3),
}

LINES = (8, 64, 256)


def partitioned(name: str) -> tuple[CSRMatrix, RowPartition]:
    mat, owner, nparts = CASES[name]()
    return mat, RowPartition(owner, nparts)


def dist_pattern(name: str) -> tuple[RowPartition, DistMatrix]:
    mat, part = partitioned(name)
    return part, DistMatrix.from_global(fsai_pattern(mat).to_csr(), part)


def same(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality: dtype, shape and every byte."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedExtensionIsPerRank:
    @pytest.mark.parametrize("mode", list(ExtensionMode), ids=lambda m: m.name)
    @pytest.mark.parametrize("line_bytes", LINES)
    @pytest.mark.parametrize("name", list(CASES))
    def test_rows_columns_and_counts(self, name, line_bytes, mode):
        part, dist = dist_pattern(name)
        got = extend_dist_pattern(dist, line_bytes, mode)
        want = oracle.extend_per_rank(dist, line_bytes, mode)
        assert got.offsets.tolist() == [0, *np.cumsum([e.n_added for e in want]).tolist()]
        bounds = got.offsets.tolist()
        for p, (e, lo, hi) in enumerate(zip(want, bounds, bounds[1:])):
            assert same(got.rows[lo:hi], e.rows), f"rank {p}"
            assert same(got.cols[lo:hi], e.cols), f"rank {p}"
        assert got.n_local_added.tolist() == [e.n_local_added for e in want]
        assert got.n_halo_added.tolist() == [e.n_halo_added for e in want]

    def test_the_cases_reach_every_branch(self):
        """The grid has a rank without halo, ranks that add halo entries, and
        lines too short to add anything."""
        part, dist = dist_pattern("no_halo_rank")
        assert dist.schedule.halo_size(0) == 0 and dist.schedule.total_halo_values() > 0
        ext = extend_dist_pattern(dist, 64, ExtensionMode.COMM)
        assert ext.n_halo_added[0] == 0 and ext.n_local_added[0] > 0
        assert extend_dist_pattern(*dist_pattern("blocks3x3")[1:], 64,
                                   ExtensionMode.COMM).n_halo_added.sum() > 0
        assert extend_dist_pattern(dist, 8, ExtensionMode.COMM).n_added == 0


class TestStackedFiltersArePerRank:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_loads(self, seed):
        rng = np.random.default_rng(seed)
        nparts = int(rng.integers(2, 9))
        ratios = [rng.uniform(0, 1, int(rng.integers(0, 3000)) * (1 + 4 * (p == 0)))
                  for p in range(nparts)]
        base = rng.integers(50, 400, nparts)
        for spec in (FilterSpec(0.01, dynamic=True), FilterSpec(0.05, dynamic=False),
                     FilterSpec(0.0, dynamic=True, max_bisection=3)):
            got = compute_dynamic_filters(base, ratios, spec)
            assert same(got, oracle.filters_per_rank(base, ratios, spec))

    def test_exhausted_nan_and_zero_average(self):
        nan = np.array([0.5, np.nan, 0.2])
        cases = [
            (np.array([10_000, 10, 10]), [np.full(10, 0.5), np.full(5, 0.5), np.empty(0)]),
            (np.array([10_000, 10]), [nan, np.full(3, 0.5)]),
            (np.array([0, 0]), [np.empty(0), np.empty(0)]),
        ]
        spec = FilterSpec(0.01, dynamic=True)
        for base, ratios in cases:
            assert same(compute_dynamic_filters(base, ratios, spec),
                        oracle.filters_per_rank(base, ratios, spec))


class TestExtensionMaskIsTheLookup:
    @pytest.mark.parametrize("mode", list(ExtensionMode), ids=lambda m: m.name)
    @pytest.mark.parametrize("line_bytes", LINES)
    @pytest.mark.parametrize("name", list(CASES))
    def test_the_union_positions_are_the_extension_entries(self, name, line_bytes, mode):
        """The set-up's extension mask, built from where the union inserted
        the additions, is the mask that looks every entry of the
        precalculated factor up in the base pattern."""
        mat, part = partitioned(name)
        ws = ExtensionWorkspace(name, mat, part, mode, line_bytes=line_bytes)
        assert same(ws.ext_mask, oracle.extension_entry_mask(ws.g_pre, ws.base))
        assert ws.ext_mask.sum() == ws.ext_nnz_unfiltered


# -- factors and verdicts the per-rank code built ---------------------------
#: (label, build function, keyword arguments) of each recorded build
BUILDS = [
    ("FSAI", build_fsai, {}),
    ("FSAIE-64", build_fsaie, {"line_bytes": 64}),
    ("FSAIE-Comm-64-dynamic", build_fsaie_comm,
     {"line_bytes": 64, "filter": FilterSpec(0.01, dynamic=True)}),
    ("FSAIE-Comm-256-static", build_fsaie_comm,
     {"line_bytes": 256, "filter": FilterSpec(0.05, dynamic=False)}),
]


def digest(dmat: DistMatrix) -> dict:
    """SHA-256 of the reassembled matrix and of every rank's block."""
    glob, blocks = hashlib.sha256(), hashlib.sha256()
    mat = dmat.to_global()
    for arr in (mat.indptr, mat.indices, mat.data):
        glob.update(arr.tobytes())
    for lm in dmat.locals:
        for arr in (lm.csr.indptr, lm.csr.indices, lm.csr.data, lm.global_rows, lm.ext_cols):
            blocks.update(arr.tobytes())
    return {"global": glob.hexdigest(), "blocks": blocks.hexdigest()}


def recorded_facts(name: str) -> dict:
    mat, part = partitioned(name)
    built = {label: build(mat, part, **kwargs) for label, build, kwargs in BUILDS}
    return {label: {"g": digest(pre.g), "gt": digest(pre.gt), "nnz": pre.nnz,
                    "filters": pre.filters.tolist(),
                    "invariant": check_comm_invariance(built["FSAI"], pre)}
            for label, pre in built.items()}


FACTS = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("name", list(CASES))
def test_factors_and_verdicts_equal_the_per_rank_build(name):
    assert recorded_facts(name) == FACTS[name]


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or len(sys.argv) != 3:
        sys.exit("usage: test_extension_oracle.py --record PATH")
    facts = {"_provenance": (
        "recorded by `python tests/test_extension_oracle.py --record PATH` on the last "
        "commit whose extension and filter bisection ran one rank at a time")}
    facts.update({name: recorded_facts(name) for name in CASES})
    Path(sys.argv[2]).write_text(json.dumps(facts, indent=1) + "\n")
