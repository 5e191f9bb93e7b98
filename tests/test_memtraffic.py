"""Unit tests for the per-line free-ride ledger and cache conformance.

Covers the attribution hooks of the cache simulator, the entry-category
classifier, the attributed replay (miss-count parity with the plain
replay), the ledger/conformance documents and their OpenMetrics export.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cachesim import (
    L1_SKYLAKE,
    NO_LINE,
    CacheConfig,
    SetAssociativeCache,
    precond_x_misses_per_rank,
)
from repro.cachesim.spmv_trace import (
    CATEGORY_BASE,
    CATEGORY_EXT_HALO,
    CATEGORY_EXT_LOCAL,
    entry_categories,
)
from repro.core import build_fsai, build_fsaie, build_fsaie_comm
from repro.core.fsai import fsai_pattern
from repro.core.precond import PrecondOptions
from repro.dist import RowPartition
from repro.observe import (
    CacheConformance,
    FreeRideLedger,
    MemTrafficError,
    RankLedger,
    cache_conformance_samples,
    ledger_samples,
)
from repro.observe.memtraffic import MethodCacheProfile
from repro.observe.prom import render_openmetrics


def make_ledger(mat, builder, *, ranks=2, line_bytes=64):
    part = RowPartition.from_matrix(mat, ranks, seed=0)
    options = PrecondOptions(line_bytes=line_bytes)
    pattern = fsai_pattern(mat, options.fsai)
    pre = builder(mat, part, options)
    ledger = FreeRideLedger(
        method=pre.name,
        line_bytes=line_bytes,
        base_g=pattern.to_csr(),
        base_gt=pattern.transpose().to_csr(),
    )
    config = CacheConfig(L1_SKYLAKE.size_bytes, line_bytes, L1_SKYLAKE.associativity)
    misses = precond_x_misses_per_rank(pre.g, pre.gt, config, ledger=ledger)
    return pre, ledger, misses, config


class TestAttributionHooks:
    def test_access_attributed_reports_eviction(self):
        cache = SetAssociativeCache(CacheConfig(128, 64, 1))  # 2 sets, 1 way
        hit, evicted = cache.access_attributed(0)
        assert (hit, evicted) == (False, NO_LINE)
        hit, evicted = cache.access_attributed(0)
        assert (hit, evicted) == (True, NO_LINE)
        # line 2 maps to set 0 and evicts line 0 in a direct-mapped set
        hit, evicted = cache.access_attributed(2)
        assert (hit, evicted) == (False, 0)

    def test_resident_lines_and_is_resident(self):
        cache = SetAssociativeCache(CacheConfig(256, 64, 2))  # 2 sets, 2 ways
        for line in (0, 1, 2):
            cache.access(line)
        assert cache.resident_lines().tolist() == [0, 1, 2]
        assert cache.is_resident(2) and not cache.is_resident(4)
        hits_before = cache.hits
        cache.is_resident(0)  # a probe, not an access
        assert cache.hits == hits_before

    def test_listener_sees_every_access(self):
        seen = []
        cache = SetAssociativeCache(
            CacheConfig(128, 64, 1),
            listener=lambda line, hit, evicted: seen.append((line, hit, evicted)),
        )
        cache.access_stream(np.array([0, 0, 2], dtype=np.int64))
        assert seen == [(0, False, NO_LINE), (0, True, NO_LINE), (2, False, 0)]


class TestEntryCategories:
    def test_fsai_entries_are_all_base(self, poisson16):
        pre, ledger, _, _ = make_ledger(poisson16, build_fsai)
        base_g = ledger.base_g
        for lm in pre.g.locals:
            cats = entry_categories(lm, base_g)
            assert cats.shape == (lm.csr.nnz,)
            assert np.all(cats == CATEGORY_BASE)

    def test_fsaie_extends_locally_only(self, poisson16):
        pre, ledger, _, _ = make_ledger(poisson16, build_fsaie)
        cats = np.concatenate(
            [entry_categories(lm, ledger.base_g) for lm in pre.g.locals]
        )
        assert np.sum(cats == CATEGORY_EXT_LOCAL) > 0
        assert np.sum(cats == CATEGORY_EXT_HALO) == 0

    def test_fsaie_comm_extends_into_halo(self, poisson16):
        pre, ledger, _, _ = make_ledger(poisson16, build_fsaie_comm)
        cats = np.concatenate(
            [entry_categories(lm, ledger.base_g) for lm in pre.g.locals]
        )
        assert np.sum(cats == CATEGORY_EXT_HALO) > 0


class TestAttributedReplay:
    def test_miss_counts_match_plain_replay(self, poisson16):
        pre, ledger, attributed, config = make_ledger(poisson16, build_fsaie_comm)
        plain = precond_x_misses_per_rank(pre.g, pre.gt, config)
        assert attributed.tolist() == plain.tolist()
        assert ledger.misses_total == int(plain.sum())
        assert ledger.nnz == pre.g.nnz

    def test_extension_accesses_mostly_free(self, poisson16):
        _, ledger, _, _ = make_ledger(poisson16, build_fsaie)
        assert ledger.ext_accesses > 0
        assert ledger.free_ride_fraction > 0.5
        assert ledger.free_rides == ledger.rides_on_base + ledger.rides_on_ext

    def test_reuse_histograms_populated(self, poisson16):
        _, ledger, _, _ = make_ledger(poisson16, build_fsaie)
        assert ledger.reuse_histogram("base").count > 0
        assert ledger.reuse_histogram("ext_local").count > 0

    def test_replay_requires_base_pattern(self, poisson16):
        part = RowPartition.from_matrix(poisson16, 2, seed=0)
        pre = build_fsai(poisson16, part)
        bare = FreeRideLedger(method="FSAI", line_bytes=64)
        with pytest.raises(ValueError):
            precond_x_misses_per_rank(pre.g, pre.gt, L1_SKYLAKE, ledger=bare)


class TestRankLedger:
    def test_record_and_derived_counters(self):
        r = RankLedger(rank=0)
        r.record("base", False, None, None)
        r.record("ext_local", True, "base", 3)
        r.record("ext_halo", True, "ext_local", 5)
        r.record("ext_halo", False, None, None)
        assert r.accesses_total == 4
        assert r.misses_total == 2
        assert r.ext_accesses == 3
        assert r.free_rides == 2
        assert (r.rides_on_base, r.rides_on_ext) == (1, 1)
        assert r.category_fraction("ext_halo") == 0.5

    def test_rejects_unknown_category(self):
        with pytest.raises(MemTrafficError):
            RankLedger(rank=0).record("ext_remote", True, None, None)


class TestFreeRideLedger:
    def test_round_trip(self, poisson16, tmp_path):
        _, ledger, _, _ = make_ledger(poisson16, build_fsaie_comm)
        path = ledger.save(tmp_path / "ledger.json")
        back = FreeRideLedger.load(path)
        assert back.summary() == ledger.summary()
        assert back.base_g is None  # working state is not serialised
        assert back.reuse_histogram("base").count == ledger.reuse_histogram("base").count

    def test_render_mentions_free_rides(self, poisson16):
        _, ledger, _, _ = make_ledger(poisson16, build_fsaie)
        text = ledger.render()
        assert "free-ride ledger" in text and "FSAIE" in text

    def test_rejects_foreign_document(self, tmp_path):
        with pytest.raises(MemTrafficError):
            FreeRideLedger.from_dict({"format": "something-else"})
        with pytest.raises(MemTrafficError):
            FreeRideLedger.load(tmp_path / "missing.json")


def profile(method, lb, *, ext=100, rides=90, misses=10, nnz=1000, model=0.0):
    return MethodCacheProfile(
        method=method,
        line_bytes=lb,
        nnz=nnz,
        misses_total=misses,
        ranks=1,
        ext_accesses=ext,
        free_rides=rides,
        modeled_x_bytes=model,
    )


class TestCacheConformance:
    def test_clean_ladder_passes_all_claims(self):
        report = CacheConformance()
        report.add(profile("FSAI", 64, ext=0, rides=0, misses=20))
        report.add(profile("FSAI", 256, ext=0, rides=0, misses=8))
        report.add(profile("FSAIE", 64, rides=80, misses=20))
        report.add(profile("FSAIE", 256, rides=95, misses=8))
        claims = report.claims()
        assert len(claims) == 5  # 2× majority, 2× not-worse, 1× rises
        assert all(c["ok"] for c in claims)
        assert report.verdicts() == []

    def test_minority_and_regression_verdicts(self):
        report = CacheConformance()
        report.add(profile("FSAI", 64, ext=0, rides=0, misses=10))
        report.add(profile("FSAIE", 64, rides=30, misses=50))
        names = {v["name"] for v in report.verdicts()}
        assert names == {"free-ride-minority", "misses-per-nnz-regressed"}
        suspects = report.to_suspects()
        assert {s.name for s in suspects} == {
            "cache:free-ride-minority",
            "cache:misses-per-nnz-regressed",
        }
        assert all(s.method == "FSAIE@64B" for s in suspects)

    def test_saturation_carve_out(self):
        report = CacheConformance()
        # 100% free rides at both geometries: no headroom to rise, still ok
        report.add(profile("FSAIE", 64, rides=100))
        report.add(profile("FSAIE", 256, rides=100))
        (rises,) = [
            c for c in report.claims()
            if c["claim"] == "free-ride-rises-with-line-size"
        ]
        assert rises["ok"] and "saturated" in rises["detail"]

    def test_flat_fraction_without_saturation_fails(self):
        report = CacheConformance()
        report.add(profile("FSAIE", 64, rides=70))
        report.add(profile("FSAIE", 256, rides=70))
        (rises,) = [
            c for c in report.claims()
            if c["claim"] == "free-ride-rises-with-line-size"
        ]
        assert not rises["ok"]
        assert {v["name"] for v in report.verdicts()} == {
            "line-geometry-gain-missing"
        }

    def test_model_confrontation(self):
        report = CacheConformance()
        # 50 misses × 64 B = 3200 B measured vs 1000 B modeled → divergence
        report.add(profile("FSAIE", 64, misses=50, model=1000.0))
        (verdict,) = [
            v for v in report.verdicts()
            if v["name"] == "memory-term-underpredicted"
        ]
        assert "3200" in verdict["detail"]
        entry = report.profile("FSAIE", 64)
        assert entry.model_ratio == pytest.approx(3.2)

    def test_round_trip(self, tmp_path):
        report = CacheConformance(meta={"matrix": "poisson2d:16"})
        report.add(profile("FSAI", 64, ext=0, rides=0))
        report.add(profile("FSAIE", 64))
        path = report.save(tmp_path / "cache.json")
        back = CacheConformance.load(path)
        assert back.meta == report.meta
        assert back.claims() == report.claims()
        assert [e.to_dict() for e in back.entries] == [
            e.to_dict() for e in report.entries
        ]
        with pytest.raises(MemTrafficError):
            CacheConformance.from_dict({"format": "nope"})


class TestExport:
    def test_ledger_samples_render_as_openmetrics(self, poisson16):
        _, ledger, _, _ = make_ledger(poisson16, build_fsaie)
        text = render_openmetrics(ledger_samples(ledger))
        assert 'memtraffic_free_rides{line_bytes="64",method="FSAIE"}' in text
        assert "memtraffic_reuse_distance_bucket" in text
        assert text.endswith("# EOF\n")

    def test_conformance_samples_render_as_openmetrics(self):
        report = CacheConformance()
        report.add(profile("FSAI", 64, ext=0, rides=0))
        report.add(profile("FSAIE", 64))
        text = render_openmetrics(cache_conformance_samples(report))
        assert 'cache_free_ride_fraction{line_bytes="64",method="FSAIE"}' in text
        assert "cache_claims_failed 0" in text
