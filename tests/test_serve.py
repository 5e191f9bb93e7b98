"""Solve-farm serving layer: fingerprints, artifact cache, tenancy, farm.

The cheap unit tiers (fingerprint equality, LRU accounting, admission
verdicts, report round-trips) always run; the end-to-end farm solves carry
the ``serve_smoke`` marker — deselect with ``-m "not serve_smoke"`` for a
faster tier-1 run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistMatrix, RowPartition
from repro.instrument import tracing
from repro.matgen import poisson2d
from repro.observe import ReportError, RunReport
from repro.observe.audit import compare_snapshots, schedule_snapshot
from repro.resilience import FaultPlan, MessageDelay
from repro.serve import (
    AdmissionController,
    ArtifactCache,
    FarmConfig,
    ServeReport,
    ServeReportError,
    SolveFarm,
    SolveRequest,
    TenantPolicy,
    WorkspacePool,
    fingerprint_structure,
    values_digest,
)
from repro.sparse import CSRMatrix


def shifted(mat: CSRMatrix, delta: float) -> CSRMatrix:
    """Same structure, different values: shift the diagonal by ``delta``."""
    data = mat.data.copy()
    for row in range(mat.nrows):
        cols = mat.indices[mat.indptr[row]:mat.indptr[row + 1]]
        data[mat.indptr[row] + int(np.searchsorted(cols, row))] += delta
    return CSRMatrix(mat.shape, mat.indptr, mat.indices, data, check=False)


# ---------------------------------------------------------------- fingerprint


class TestFingerprint:
    def test_values_do_not_change_the_structure_fingerprint(self):
        mat = poisson2d(8)
        fp1 = fingerprint_structure(mat, ranks=4)
        fp2 = fingerprint_structure(shifted(mat, 0.5), ranks=4)
        assert fp1 == fp2
        assert fp1.key == fp2.key
        assert values_digest(mat) != values_digest(shifted(mat, 0.5))

    def test_structure_changes_the_fingerprint(self):
        fp1 = fingerprint_structure(poisson2d(8), ranks=4)
        fp2 = fingerprint_structure(poisson2d(9), ranks=4)
        assert fp1 != fp2
        assert fp1.digest != fp2.digest

    def test_options_change_the_fingerprint(self):
        mat = poisson2d(8)
        base = fingerprint_structure(mat, ranks=4)
        assert fingerprint_structure(mat, ranks=8) != base
        assert fingerprint_structure(mat, ranks=4, method="fsai") != base
        assert fingerprint_structure(mat, ranks=4, line_bytes=256) != base
        assert fingerprint_structure(mat, ranks=4, filter_value=0.1) != base
        assert fingerprint_structure(mat, ranks=4, dynamic=False) != base
        assert fingerprint_structure(mat, ranks=4, seed=7) != base

    def test_to_dict_surface(self):
        fp = fingerprint_structure(poisson2d(8), ranks=4)
        doc = fp.to_dict()
        assert doc["digest"] == fp.digest
        assert doc["shape"] == [64, 64]
        assert doc["ranks"] == 4
        assert doc["nnz"] == poisson2d(8).nnz


# ---------------------------------------------------------------------- cache


class TestArtifactCache:
    def test_hit_and_miss_accounting(self):
        cache = ArtifactCache(name="t1")
        assert cache.get("a") is None
        cache.put("a", "payload", 100)
        assert cache.get("a") == "payload"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.bytes == 100

    def test_lru_eviction_respects_max_bytes(self):
        cache = ArtifactCache(max_bytes=250, name="t2")
        cache.put("a", "A", 100)
        cache.put("b", "B", 100)
        assert cache.get("a") == "A"  # touch: "b" is now least recent
        cache.put("c", "C", 100)
        assert "b" not in cache
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"
        assert cache.stats.evictions == 1
        assert cache.stats.evicted_bytes == 100
        assert cache.stats.bytes == 200

    def test_oversized_entry_survives_alone(self):
        # the just-inserted entry is never evicted, even above the bound:
        # a cache that cannot hold its working set still serves it once
        cache = ArtifactCache(max_bytes=50, name="t3")
        cache.put("big", "B", 500)
        assert cache.get("big") == "B"
        assert len(cache) == 1

    def test_zero_max_bytes_disables_the_cache(self):
        cache = ArtifactCache(max_bytes=0, name="t4")
        dropped = cache.put("a", "A", 10)
        assert cache.get("a") is None
        assert "a" not in cache
        assert len(cache) == 0
        assert dropped  # the dropped payload is reported as an eviction
        assert cache.stats.evictions == 1

    def test_metrics_mirrored_to_registry(self):
        with tracing() as (_, registry):
            cache = ArtifactCache(name="mirrored")
            cache.get("nope")
            cache.put("a", "A", 64)
            cache.get("a")
            assert registry.value("serve.cache.hits", tier="mirrored") == 1
            assert registry.value("serve.cache.misses", tier="mirrored") == 1
            assert registry.value("serve.cache.bytes", tier="mirrored") == 64


class TestWorkspacePool:
    def test_acquire_reuses_released_workspaces(self):
        made = []

        def factory():
            made.append(object())
            return made[-1]

        pool = WorkspacePool(factory)
        w1 = pool.acquire()
        pool.release(w1)
        w2 = pool.acquire()
        assert w2 is w1
        assert pool.created == 1
        assert pool.idle == 0
        pool.release(w2)
        assert pool.idle == 1


# -------------------------------------------------------------------- tenancy


class TestAdmission:
    def make(self, **kw):
        return AdmissionController(
            [TenantPolicy("alpha", max_in_flight=2),
             TenantPolicy("beta", max_in_flight=1)],
            **kw,
        )

    def test_unknown_tenant_is_shed(self):
        ctrl = self.make()
        verdict = ctrl.admit("mallory")
        assert not verdict.admitted
        assert verdict.reason == "unknown-tenant"

    def test_tenant_budget_is_enforced(self):
        ctrl = self.make()
        assert ctrl.admit("beta").admitted
        verdict = ctrl.admit("beta")
        assert not verdict.admitted
        assert verdict.reason == "tenant-budget"
        ctrl.release("beta")
        assert ctrl.admit("beta").admitted

    def test_queue_limit_sheds_before_tenant_budget(self):
        ctrl = self.make(queue_limit=1)
        assert ctrl.admit("alpha").admitted
        verdict = ctrl.admit("beta")
        assert not verdict.admitted
        assert verdict.reason == "queue-full"

    def test_unmatched_release_raises(self):
        ctrl = self.make()
        with pytest.raises(Exception):
            ctrl.release("alpha")

    def test_latency_histogram_percentiles(self):
        ctrl = self.make()
        for ms in (1, 2, 3, 4, 100):
            ctrl.admit("alpha")
            ctrl.release("alpha")
            ctrl.observe_latency("alpha", ms * 1e-3)
        doc = ctrl.stats("alpha").to_dict()
        lat = doc["latency"]
        assert lat["count"] == 5
        assert lat["p50_s"] == pytest.approx(3e-3, rel=0.2)
        assert lat["p99_s"] == pytest.approx(100e-3, rel=0.2)

    def test_shed_fraction(self):
        ctrl = self.make()
        ctrl.admit("beta")
        ctrl.admit("beta")  # shed: budget
        assert ctrl.shed_fraction == pytest.approx(0.5)
        assert ctrl.to_dict()["shed"] == 1


# ----------------------------------------------------------------------- farm


def small_config(**kw) -> FarmConfig:
    defaults = dict(ranks=4, method="comm", workers=4, queue_limit=64)
    defaults.update(kw)
    return FarmConfig(**defaults)


def two_tenants():
    return [TenantPolicy("alpha", max_in_flight=32),
            TenantPolicy("beta", max_in_flight=32)]


@pytest.mark.serve_smoke
class TestSolveFarm:
    def test_same_structure_different_values_hits_structure_tier(self):
        mat = poisson2d(12)
        with SolveFarm(two_tenants(), small_config()) as farm:
            first = farm.serve([SolveRequest("alpha", mat)])[0]
            again = farm.serve([SolveRequest("beta", mat)])[0]
            other_values = farm.serve(
                [SolveRequest("alpha", shifted(mat, 0.25))]
            )[0]
        # the structure build seeds the system tier with the operator it
        # just distributed, so even the first request gets a system hit
        assert first.ok and not first.structure_hit and first.system_hit
        assert again.ok and again.structure_hit and again.system_hit
        assert other_values.ok
        assert other_values.structure_hit
        assert not other_values.system_hit
        # the §4 invariance audit ran on the warm-structure build and the
        # cached halo schedule was byte-identical to a fresh one
        assert other_values.schedule_invariant is True
        assert farm.audit_violations == 0
        assert first.fingerprint == other_values.fingerprint

    def test_cached_schedule_is_bit_identical_to_fresh_build(self):
        mat = poisson2d(12)
        config = small_config()
        with SolveFarm(two_tenants(), config) as farm:
            farm.serve([SolveRequest("alpha", mat)])
            fp = fingerprint_structure(
                mat,
                ranks=config.ranks,
                method=config.method,
                line_bytes=config.line_bytes,
                filter_value=config.filter_value,
                dynamic=config.dynamic_filter,
                seed=config.partition_seed,
            )
            setup = farm.structures.get(fp)
        assert setup is not None
        part = RowPartition.from_matrix(mat, config.ranks,
                                        seed=config.partition_seed)
        fresh = DistMatrix.from_global(shifted(mat, 0.25), part)
        verdict = compare_snapshots(
            setup.schedule_snapshot, schedule_snapshot(fresh.schedule)
        )
        assert verdict.invariant, verdict.render()

    def test_different_structure_misses(self):
        with SolveFarm(two_tenants(), small_config()) as farm:
            a = farm.serve([SolveRequest("alpha", poisson2d(12))])[0]
            b = farm.serve([SolveRequest("alpha", poisson2d(13))])[0]
        assert a.fingerprint != b.fingerprint
        assert not b.structure_hit

    def test_concurrent_identical_requests_agree_exactly(self):
        mat = poisson2d(12)
        with SolveFarm(two_tenants(), small_config(workers=8)) as farm:
            farm.serve([SolveRequest("alpha", mat)])  # warm
            outcomes = farm.serve(
                [SolveRequest("alpha" if i % 2 else "beta", mat)
                 for i in range(12)]
            )
        iters = {o.iterations for o in outcomes}
        assert all(o.ok for o in outcomes)
        assert len(iters) == 1  # deterministic under concurrency

    def test_tenant_budget_sheds_deterministically(self):
        # all submits admit before any worker releases, so a budget of 1
        # sheds exactly the excess requests
        mat = poisson2d(12)
        tenants = [TenantPolicy("solo", max_in_flight=1)]
        with SolveFarm(tenants, small_config(workers=2)) as farm:
            outcomes = farm.serve([SolveRequest("solo", mat)
                                   for _ in range(3)])
        shed = [o for o in outcomes if not o.admitted]
        assert len(shed) == 2
        assert all(o.shed_reason == "tenant-budget" for o in shed)
        assert farm.admission.shed_fraction == pytest.approx(2 / 3)

    def test_chaos_tenant_records_injected_faults(self):
        mat = poisson2d(10)
        plan = FaultPlan(seed=0, delays=(MessageDelay(0.5, 0.001),))
        tenants = [TenantPolicy("alpha", max_in_flight=8),
                   TenantPolicy("chaos", max_in_flight=8, fault_plan=plan)]
        with SolveFarm(tenants, small_config(workers=2)) as farm:
            outcomes = farm.serve([
                SolveRequest("alpha", mat),
                SolveRequest("chaos", mat, engine="spmd"),
            ])
        clean = next(o for o in outcomes if o.tenant == "alpha")
        chaotic = next(o for o in outcomes if o.tenant == "chaos")
        assert clean.ok and chaotic.ok
        assert not clean.injected
        assert chaotic.injected and chaotic.injected.get("delays", 0) > 0

    def test_eviction_under_byte_pressure(self):
        # a cache too small for two structures keeps only the latest
        with SolveFarm(
            two_tenants(), small_config(cache_max_bytes=1)
        ) as farm:
            farm.serve([SolveRequest("alpha", poisson2d(12))])
            farm.serve([SolveRequest("alpha", poisson2d(13))])
            assert len(farm.structures) == 1
            assert farm.structures.stats.evictions >= 1


# --------------------------------------------------------------------- report


@pytest.mark.serve_smoke
class TestServeReport:
    def run_farm(self, tmp_path):
        mat = poisson2d(12)
        with SolveFarm(two_tenants(), small_config()) as farm:
            outcomes = farm.serve([
                SolveRequest("alpha", mat),
                SolveRequest("beta", shifted(mat, 0.1)),
            ])
            report = ServeReport.from_farm(farm, outcomes=outcomes,
                                           matrix="poisson2d:12")
        return report

    def test_round_trip_and_metrics(self, tmp_path):
        report = self.run_farm(tmp_path)
        path = report.save(tmp_path / "serve.json")
        loaded = ServeReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        m = report.metrics()
        assert m["serve.admitted"] == 2
        assert m["serve.cache.structure.hits"] == 1
        assert "serve.tenant.alpha.latency.p95_s" in m
        assert "alpha" in report.render()

    def test_runreport_load_dispatches_serve_report(self, tmp_path):
        path = self.run_farm(tmp_path).save(tmp_path / "serve.json")
        run = RunReport.load(path)
        assert run.meta["source"] == "serve-report"
        assert run.metrics["serve.admitted"] == 2.0
        assert "serve" in run.sections

    def test_load_rejects_missing_and_binary(self, tmp_path):
        with pytest.raises(ServeReportError):
            ServeReport.load(tmp_path / "nope.json")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00\x01\xff\xfe")
        with pytest.raises(ServeReportError):
            ServeReport.load(bad)
        with pytest.raises(ReportError):
            RunReport.load(bad)

    def test_from_dict_rejects_wrong_format(self):
        with pytest.raises(ServeReportError):
            ServeReport.from_dict({"format": "other", "version": 1})
        with pytest.raises(ServeReportError):
            ServeReport.from_dict(
                {"format": "repro-serve-report", "version": 99}
            )
