"""Set-up reuse: structure fingerprints, value variants and the two-tier
:class:`~repro.serve.ArtifactCache` behind ``solve_many``, and the run
report ``repro serve --json`` writes.

The unit checks always run; the end-to-end solves of ``TestSolveFarm``
carry the ``suite_smoke`` marker — deselect with ``-m "not suite_smoke"``
for a faster tier-1 run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.dist import DistMatrix, RowPartition
from repro.errors import ReproError, SparseFormatError
from repro.matgen import poisson2d
from repro.observe import RunReport
from repro.observe.audit import compare_snapshots, schedule_snapshot
from repro.observe.report import REPORT_FORMAT
from repro.serve import (
    ArtifactCache,
    fingerprint_structure,
    value_variants,
    values_digest,
)


def shifted(mat):
    """Same structure, different values: the first diagonal-shift variant."""
    return value_variants(mat, 2)[1]


# ---------------------------------------------------------------- fingerprint


class TestFingerprint:
    def test_values_do_not_change_the_structure_fingerprint(self):
        mat = poisson2d(8)
        assert fingerprint_structure(mat, ranks=4) == fingerprint_structure(
            shifted(mat), ranks=4
        )
        assert values_digest(mat) != values_digest(shifted(mat))

    def test_structure_changes_the_fingerprint(self):
        fp1 = fingerprint_structure(poisson2d(8), ranks=4)
        fp2 = fingerprint_structure(poisson2d(9), ranks=4)
        assert fp1 != fp2

    def test_options_change_the_fingerprint(self):
        mat = poisson2d(8)
        base = fingerprint_structure(mat, ranks=4)
        assert fingerprint_structure(mat, ranks=8) != base
        assert fingerprint_structure(mat, ranks=4, method="fsai") != base
        assert fingerprint_structure(mat, ranks=4, line_bytes=256) != base
        assert fingerprint_structure(mat, ranks=4, filter_value=0.1) != base
        assert fingerprint_structure(mat, ranks=4, dynamic=False) != base
        assert fingerprint_structure(mat, ranks=4, seed=7) != base


# ------------------------------------------------------------- value variants


def _without_diagonal(mat, rows):
    """``mat`` with the diagonal entries of ``rows`` removed."""
    row_of = np.repeat(np.arange(mat.nrows), mat.row_nnz())
    return mat.drop_entries((row_of == mat.indices) & np.isin(row_of, rows))


class TestValueVariants:
    def test_variants_share_structure_and_shift_only_the_diagonal(self):
        mat = poisson2d(6)
        base, one, two = value_variants(mat, 3)
        assert base is mat
        assert one.indptr is mat.indptr and one.indices is mat.indices
        np.testing.assert_allclose(one.diagonal() - mat.diagonal(), 0.05)
        np.testing.assert_allclose(two.diagonal() - mat.diagonal(), 0.10)
        row_of = np.repeat(np.arange(mat.nrows), mat.row_nnz())
        changed = np.flatnonzero(two.data != mat.data)
        assert np.array_equal(row_of[changed], mat.indices[changed])

    def test_missing_diagonal_names_the_first_such_row(self):
        mat = _without_diagonal(poisson2d(4), [2, 15])
        with pytest.raises(SparseFormatError, match="row 2 "):
            value_variants(mat, 2)

    def test_missing_diagonal_on_the_last_row(self):
        # the per-row searchsorted copies this replaced indexed past the
        # end of the arrays here
        mat = _without_diagonal(poisson2d(4), [15])
        with pytest.raises(SparseFormatError, match="row 15 "):
            value_variants(mat, 1)


# ---------------------------------------------------------------------- cache


class TestArtifactCache:
    def test_hit_and_miss_accounting(self):
        mat = poisson2d(8)
        cache = ArtifactCache()
        cache.solve_many([mat, mat, shifted(mat)])
        assert cache.counts == {
            "solves": 3,
            "structure_hits": 2,
            "structure_misses": 1,
            "system_hits": 2,
            "system_misses": 1,
            "audits": 1,
            "audit_violations": 0,
        }
        assert len(cache.structures) == 1
        assert len(cache.systems) == 2

    def test_unknown_method_is_rejected(self):
        with pytest.raises(ReproError, match="method"):
            ArtifactCache(method="spai")


@pytest.mark.suite_smoke
class TestSolveFarm:
    def test_same_structure_different_values_hits_structure_tier(self):
        mat = poisson2d(12)
        first, again, other_values = ArtifactCache().solve_many(
            [mat, mat, shifted(mat)]
        )
        # the structure build seeds the system tier with the operator it
        # just distributed, so even the first solve gets a system hit
        assert first.converged and not first.structure_hit and first.system_hit
        assert again.converged and again.structure_hit and again.system_hit
        assert other_values.converged
        assert other_values.structure_hit
        assert not other_values.system_hit
        # the §4 invariance audit ran on the warm-structure build and the
        # cached halo schedule was byte-identical to a fresh one
        assert other_values.schedule_invariant is True
        assert first.schedule_invariant is again.schedule_invariant is None

    def test_cached_schedule_is_bit_identical_to_fresh_build(self):
        mat = poisson2d(12)
        cache = ArtifactCache()
        cache.solve_many([mat])
        setup = cache.structures[fingerprint_structure(mat, **cache.options)]
        part = RowPartition.from_matrix(mat, cache.options["ranks"],
                                        seed=cache.options["seed"])
        fresh = DistMatrix.from_global(shifted(mat), part)
        verdict = compare_snapshots(
            setup.schedule_snapshot, schedule_snapshot(fresh.schedule)
        )
        assert verdict.invariant, verdict.render()

    def test_different_structure_misses(self):
        cache = ArtifactCache()
        _, b = cache.solve_many([poisson2d(12), poisson2d(13)])
        assert not b.structure_hit
        assert len(cache.structures) == 2


# --------------------------------------------------------------------- report


@pytest.mark.suite_smoke
class TestServeReport:
    ARGV = ["serve", "--generate", "poisson2d:12", "--requests", "4", "--variants", "2"]

    def run_serve(self, tmp_path, capsys):
        path = tmp_path / "serve.json"
        assert main([*self.ARGV, "--json", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_round_trip_and_metrics(self, tmp_path, capsys):
        path = self.run_serve(tmp_path, capsys)
        report = RunReport.load(path)
        again = RunReport.load(report.save(tmp_path / "again.json"))
        assert again.to_dict() == report.to_dict()
        m = report.metrics
        assert m["serve.solves"] == 4
        assert m["serve.structure_misses"] == 1
        assert m["serve.structure_hits"] == 3
        assert m["serve.system_misses"] == 1
        assert m["serve.audits"] == 1
        assert m["serve.audit_violations"] == 0
        assert m["serve.iterations_total"] > 0
        assert "serve.solves" in report.to_text()

    def test_runreport_load_dispatches_serve_report(self, tmp_path, capsys):
        path = self.run_serve(tmp_path, capsys)
        assert json.loads(path.read_text())["format"] == REPORT_FORMAT
        run = RunReport.load(path)
        assert run.meta["label"] == "serve"
        assert run.meta["requests"] == 4 and run.meta["variants"] == 2
        assert main(["report", str(path)]) == 0
        assert "serve.audits" in capsys.readouterr().out
