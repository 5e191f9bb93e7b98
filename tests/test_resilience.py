"""Tests for the fault-injection and resilience subsystem.

Covers the declarative plan layer (validation, serialisation,
determinism), the injected transport (retries, drops, duplicates,
bit-flips), solver checkpoint-restart, degraded mode after a permanent
rank failure, the chaos harness artifacts, and the error paths the
injection machinery must surface cleanly (unpicklable payloads,
non-monotonic span streams, report-format confusion).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import build_fsai, pcg
from repro.dist import DistVector, RowPartition, spmd_cg
from repro.errors import CommError, ConvergenceError, FaultPlanError
from repro.instrument import TraceError, tracing
from repro.instrument.export import spans_to_dicts, validate_span_monotonicity
from repro.mpisim import CommTracker, get_injector, run_spmd
from repro.resilience import (
    ChaosError,
    ChaosReport,
    CheckpointManager,
    FaultInjector,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    PayloadBitFlip,
    RankFailure,
    RankStall,
    ResilienceConfig,
    fault_injection,
    solve_with_failover,
)
from repro.resilience.degraded import degrade_system, degrade_vector

RTOL = 1e-8
IDENTICAL_RTOL = 1e-10


# ---------------------------------------------------------------------------
# FaultPlan: validation and serialisation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_empty_plan_injects_nothing(self):
        plan = FaultPlan()
        assert plan.empty
        verdict = FaultInjector(plan).message_verdict(0, 1)
        assert verdict.clean

    @pytest.mark.parametrize("bad", [-0.1, 1.5, 2.0])
    def test_probability_out_of_range_rejected(self, bad):
        with pytest.raises(FaultPlanError, match="probability"):
            MessageDelay(probability=bad, seconds=0.01)
        with pytest.raises(FaultPlanError, match="probability"):
            MessageDrop(probability=bad)

    def test_bad_bit_rejected(self):
        with pytest.raises(FaultPlanError, match="bit"):
            PayloadBitFlip(probability=0.5, bit=64)

    def test_negative_knobs_rejected(self):
        with pytest.raises(FaultPlanError):
            MessageDelay(probability=0.5, seconds=-1.0)
        with pytest.raises(FaultPlanError):
            RankStall(rank=0, seconds=-0.1)
        with pytest.raises(FaultPlanError):
            FaultPlan(max_retries=-1)

    def test_wrong_rule_type_rejected(self):
        with pytest.raises(FaultPlanError, match="MessageDelay"):
            FaultPlan(delays=(MessageDrop(probability=0.5),))

    def test_round_trip(self):
        plan = FaultPlan(
            seed=11,
            delays=(MessageDelay(probability=0.05, seconds=0.08, src=1),),
            drops=(MessageDrop(probability=0.1),),
            duplicates=(MessageDuplicate(probability=0.2, dst=2),),
            bitflips=(PayloadBitFlip(probability=0.01, bit=62),),
            stalls=(RankStall(rank=1, seconds=0.02, at_update=3),),
            failures=(RankFailure(rank=2, at_update=5),),
            max_retries=3,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultPlanError, match="unknown"):
            FaultPlan.from_dict({"seed": 1, "jitter": []})
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict("not a dict")

    def test_with_seed_preserves_rules(self):
        plan = FaultPlan(seed=1, drops=(MessageDrop(probability=0.5),))
        other = plan.with_seed(99)
        assert other.seed == 99
        assert other.drops == plan.drops


# ---------------------------------------------------------------------------
# FaultInjector: seeded determinism
# ---------------------------------------------------------------------------


class TestInjectorDeterminism:
    PLAN = FaultPlan(
        seed=5,
        drops=(MessageDrop(probability=0.3),),
        delays=(MessageDelay(probability=0.3, seconds=0.01),),
    )

    @staticmethod
    def _verdicts(plan, n=40):
        inj = FaultInjector(plan)
        return [inj.message_verdict(0, 1, tag=7) for _ in range(n)]

    def test_same_seed_same_sequence(self):
        a = self._verdicts(self.PLAN)
        b = self._verdicts(self.PLAN)
        assert [(v.dropped, v.delay_s) for v in a] == [
            (v.dropped, v.delay_s) for v in b
        ]

    def test_different_seed_differs(self):
        a = self._verdicts(self.PLAN)
        b = self._verdicts(self.PLAN.with_seed(6))
        assert [(v.dropped, v.delay_s) for v in a] != [
            (v.dropped, v.delay_s) for v in b
        ]

    def test_edges_are_independent_streams(self):
        inj = FaultInjector(self.PLAN)
        a = [inj.message_verdict(0, 1) for _ in range(20)]
        b = [inj.message_verdict(0, 2) for _ in range(20)]
        assert [(v.dropped, v.delay_s) for v in a] != [
            (v.dropped, v.delay_s) for v in b
        ]

    def test_corrupt_flips_exactly_one_bit(self):
        inj = FaultInjector(FaultPlan(bitflips=(PayloadBitFlip(1.0, bit=62),)))
        verdict = inj.message_verdict(0, 1)
        assert verdict.flip_bit == 62
        payload = np.linspace(1.0, 2.0, 8)
        clean = payload.copy()
        out = inj.corrupt(payload, verdict)
        assert np.sum(out != clean) == 1
        # non-float64 payloads pass through untouched
        ints = np.arange(4)
        assert inj.corrupt(ints, verdict) is ints

    def test_installation_is_scoped(self):
        assert get_injector() is None
        with fault_injection(FaultPlan(seed=1)) as inj:
            assert get_injector() is inj
        assert get_injector() is None


# ---------------------------------------------------------------------------
# BSP transport: acceptance scenario, retries, exhaustion
# ---------------------------------------------------------------------------


class TestInjectedTransport:
    def test_delay_and_stall_preserve_residual(self, dist_poisson16):
        """The ISSUE acceptance contract: one transient stall plus 5%
        over-timeout delays must converge to the clean run's final
        residual (1e-10 relative) with ``halo.retries > 0``."""
        _, part, da, b = dist_poisson16
        pre = build_fsai(da.to_global(), part)
        clean = pcg(da, b, precond=pre, rtol=RTOL)
        plan = FaultPlan(
            seed=7,
            delays=(MessageDelay(probability=0.05, seconds=0.08),),
            stalls=(RankStall(rank=1, seconds=0.02, at_update=2),),
        )
        with tracing() as (_, metrics):
            with fault_injection(plan) as inj:
                faulty = pcg(da, b, precond=pre, rtol=RTOL)
            retries = metrics.sum_values("halo.retries")
            stalls = metrics.sum_values("resilience.stalls")
        assert faulty.converged
        assert faulty.iterations == clean.iterations
        rel = abs(faulty.final_residual - clean.final_residual) / abs(
            clean.final_residual
        )
        assert rel <= IDENTICAL_RTOL
        assert retries > 0
        assert inj.counts["retries"] == retries
        assert stalls == 1 and inj.counts["stalls"] == 1

    def test_drop_exhaustion_raises_comm_error(self, dist_poisson16):
        _, part, da, b = dist_poisson16
        pre = build_fsai(da.to_global(), part)
        plan = FaultPlan(seed=3, drops=(MessageDrop(probability=1.0),), max_retries=2)
        with tracing() as (_, metrics):
            with fault_injection(plan):
                with pytest.raises(CommError, match="max_retries"):
                    pcg(da, b, precond=pre, rtol=RTOL)
            assert metrics.sum_values("halo.timeouts") >= 1
            assert metrics.sum_values("halo.retries") >= 3

    def test_zero_overhead_without_injector(self, dist_poisson16):
        _, part, da, b = dist_poisson16
        pre = build_fsai(da.to_global(), part)
        assert get_injector() is None
        with tracing() as (_, metrics):
            result = pcg(da, b, precond=pre, rtol=RTOL)
            assert metrics.sum_values("halo.retries") == 0
            assert metrics.sum_values("halo.timeouts") == 0
        assert result.converged


# ---------------------------------------------------------------------------
# Checkpoint-restart
# ---------------------------------------------------------------------------


class TestCheckpointRestart:
    def test_manager_due_and_budget(self):
        mgr = CheckpointManager(ResilienceConfig(checkpoint_interval=5, max_rollbacks=1))
        assert mgr.due(0) and mgr.due(5) and not mgr.due(3)
        with pytest.raises(ConvergenceError, match="before any checkpoint"):
            mgr.rollback("divergence")
        part = RowPartition(np.array([0, 0, 0, 1, 1]), 2)
        x = DistVector(part, [np.ones(3), np.ones(2)])
        mgr.save(0, 1.0, 1.0, x, x, x)
        assert mgr.should_rollback(float("nan"))
        assert mgr.should_rollback(1e4)
        assert not mgr.should_rollback(2.0)
        assert mgr.rollback("divergence").iteration == 0
        with pytest.raises(ConvergenceError, match="rolled back"):
            mgr.rollback("divergence")

    def test_restore_into_copies_in_place(self):
        part = RowPartition(np.array([0, 0, 0, 1, 1]), 2)
        x = DistVector(part, [np.arange(3.0), np.arange(2.0)])
        mgr = CheckpointManager(ResilienceConfig())
        mgr.save(0, 1.0, 1.0, x, x, x)
        for p in x.parts:
            p.fill(-1.0)
        backing = [p for p in x.parts]
        mgr.restore_into(mgr.checkpoint.x_parts, x)
        assert all(a is b for a, b in zip(x.parts, backing))
        np.testing.assert_array_equal(x.parts[0], np.arange(3.0))

    def test_bitflip_triggers_rollback_and_recovers(self, dist_poisson16):
        """A rare injected bit-flip in the exponent range must be caught
        by the divergence trigger and rolled back, and the solve must
        still converge.  (Seed chosen so the plan fires at least once;
        the checkpoint interval is short enough that replay outruns the
        flip rate.)"""
        _, part, da, b = dist_poisson16
        pre = build_fsai(da.to_global(), part)
        clean = pcg(da, b, precond=pre, rtol=RTOL)
        plan = FaultPlan(seed=0, bitflips=(PayloadBitFlip(probability=0.002, bit=62),))
        cfg = ResilienceConfig(checkpoint_interval=5, max_rollbacks=10)
        with tracing() as (_, metrics):
            with fault_injection(plan) as inj:
                with np.errstate(over="ignore", invalid="ignore"):
                    faulty = pcg(da, b, precond=pre, rtol=RTOL, resilience=cfg)
            rollbacks = metrics.sum_values("pcg.rollbacks")
            checkpoints = metrics.sum_values("pcg.checkpoints")
        assert inj.counts["bitflips"] > 0
        assert rollbacks > 0
        assert checkpoints > 0
        assert faulty.converged
        assert faulty.iterations == clean.iterations

    def test_resilience_config_is_inert_without_faults(self, dist_poisson16):
        _, part, da, b = dist_poisson16
        pre = build_fsai(da.to_global(), part)
        clean = pcg(da, b, precond=pre, rtol=RTOL)
        with tracing() as (_, metrics):
            guarded = pcg(da, b, precond=pre, rtol=RTOL, resilience=ResilienceConfig())
            assert metrics.sum_values("pcg.rollbacks") == 0
            assert metrics.sum_values("pcg.checkpoints") > 0
        assert guarded.iterations == clean.iterations
        assert guarded.final_residual == clean.final_residual


# ---------------------------------------------------------------------------
# Degraded mode
# ---------------------------------------------------------------------------


class TestDegradedMode:
    def test_degrade_system_audits_unaffected_edges(self, dist_poisson16):
        _, part, da, b = dist_poisson16
        system = degrade_system(da, 1)
        assert system.nparts == part.nparts - 1
        assert system.failed_rank == 1
        assert 1 not in system.rank_map
        assert system.audit.invariant
        moved = degrade_vector(b, system)
        np.testing.assert_allclose(moved.to_global(), b.to_global())

    def test_degraded_solve_matches_clean_solution(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        x_ref = pcg(da, b, precond=build_fsai(mat, part), rtol=RTOL).x.to_global()
        system = degrade_system(da, 2)
        pre = build_fsai(mat, system.partition)
        result = pcg(system.matrix, degrade_vector(b, system), precond=pre, rtol=RTOL)
        assert result.converged
        np.testing.assert_allclose(result.x.to_global(), x_ref, atol=1e-6)

    def test_solve_with_failover(self, dist_poisson16):
        mat, _, da, b = dist_poisson16
        plan = FaultPlan(seed=7, failures=(RankFailure(rank=1, at_update=3),))
        with fault_injection(plan):
            outcome = solve_with_failover(
                da, b, precond_builder=lambda a, p: build_fsai(a, p), rtol=RTOL
            )
        assert outcome.failed_over
        assert outcome.system.failed_rank == 1
        assert outcome.result.converged
        assert outcome.system.audit.invariant

    def test_no_failure_is_a_plain_solve(self, dist_poisson16):
        mat, _, da, b = dist_poisson16
        outcome = solve_with_failover(
            da, b, precond_builder=lambda a, p: build_fsai(a, p), rtol=RTOL
        )
        assert not outcome.failed_over
        assert outcome.system is None
        assert outcome.result.converged


# ---------------------------------------------------------------------------
# SPMD engine under injection
# ---------------------------------------------------------------------------


class TestSpmdInjection:
    def test_duplicates_are_deduplicated(self, dist_poisson16):
        _, _, da, b = dist_poisson16
        x_clean, it_clean = spmd_cg(da, b, rtol=RTOL)
        plan = FaultPlan(seed=2, duplicates=(MessageDuplicate(probability=0.1),))
        with tracing() as (_, metrics):
            with fault_injection(plan) as inj:
                x_dup, it_dup = spmd_cg(da, b, rtol=RTOL)
            dups = metrics.sum_values("mpisim.dup_messages")
        assert inj.counts["duplicates"] > 0
        assert dups == inj.counts["duplicates"]
        assert it_dup == it_clean
        np.testing.assert_array_equal(x_dup.to_global(), x_clean.to_global())

    def test_bitflip_breakdown_stops_every_rank(self, dist_poisson16):
        """A flipped exponent bit drives ``dᵀAd`` to inf/NaN, which no
        residual test ever meets: the allreduced breakdown check stops all
        ranks together instead of running out the iteration budget."""
        mat, part, da, b = dist_poisson16
        pre = build_fsai(mat, part)
        plan = FaultPlan(seed=0, bitflips=(PayloadBitFlip(probability=0.002, bit=62),))
        with fault_injection(plan) as inj, np.errstate(over="ignore", invalid="ignore"):
            _, iterations = spmd_cg(
                da, b, rtol=RTOL, max_iterations=300, precond_pair=(pre.g, pre.gt)
            )
        assert inj.counts["bitflips"] > 0
        assert iterations < 100  # 300 before the breakdown check, 6 with it

    def test_unpicklable_payload_raises_comm_error_under_retry(self):
        """The tracker must refuse to size an unpicklable payload even when
        the message already survived the injected retry loop."""
        plan = FaultPlan(seed=4, drops=(MessageDrop(probability=0.4),))

        async def prog(comm):
            # sends are buffered, so rank 1 need not post a receive: the
            # failure fires in rank 0's send path, after the retry loop
            if comm.rank == 0:
                comm.send(threading.Lock(), 1, tag=1)

        with fault_injection(plan):
            with pytest.raises(CommError, match="not picklable"):
                run_spmd(prog, 2, tracker=CommTracker())


# ---------------------------------------------------------------------------
# Error paths through the observability stack
# ---------------------------------------------------------------------------


class TestObservabilityErrorPaths:
    def test_injected_delay_spans_validate_then_tampering_fails(self, dist_poisson16):
        _, part, da, b = dist_poisson16
        pre = build_fsai(da.to_global(), part)
        plan = FaultPlan(seed=7, delays=(MessageDelay(probability=0.05, seconds=0.08),))
        with tracing() as (tracer, _):
            with fault_injection(plan):
                pcg(da, b, precond=pre, rtol=RTOL)
            spans = spans_to_dicts(tracer.spans)
        assert any(d["name"].startswith("resilience.") for d in spans)
        validate_span_monotonicity(spans, source="chaos")
        # rewind a copy of the last span: same stream, earlier start
        bad = dict(spans[-1])
        bad["start"] = spans[0]["start"] - 1.0
        bad["end"] = bad["start"] + 0.5
        with pytest.raises(TraceError, match="non-monotonic"):
            validate_span_monotonicity(spans + [bad], source="chaos")

    def test_report_compare_rejects_chaos_artifact(self, tmp_path, dist_poisson16):
        from repro.cli import main
        from repro.observe import RunReport

        base = RunReport(meta={"label": "base"}, metrics={"iterations": 30})
        base_path = base.save(tmp_path / "base.json")
        chaos = ChaosReport(meta={"matrix": "poisson2d:16"}, clean={"iterations": 30})
        chaos_path = chaos.save(tmp_path / "chaos.json")
        assert (
            main(["report", str(base_path), "--compare", str(chaos_path)]) == 2
        )

    def test_chaos_report_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "not_chaos.json"
        path.write_text('{"format": "repro-run-report", "version": 1}')
        with pytest.raises(ChaosError, match="not a chaos report"):
            ChaosReport.load(path)
        path.write_text("{broken")
        with pytest.raises(ChaosError, match="cannot read"):
            ChaosReport.load(path)

    def test_chaos_report_round_trip(self, tmp_path):
        report = ChaosReport(
            meta={"matrix": "poisson2d:16", "ranks": 4, "seed": 7},
            clean={"iterations": 30, "final_residual": 1e-9},
        )
        loaded = ChaosReport.load(report.save(tmp_path / "chaos.json"))
        assert loaded.to_dict() == report.to_dict()
        assert loaded.survived  # vacuously: no scenarios
