"""Tests of the optional Monte-Carlo verification stage.

Covers the stage wiring end to end: plan/key chaining (verify keys off the
archsyn tier, so physical-only sweeps replay cached verification reports),
the differential golden pins (a fault-free stochastic replay of the paper
assays must reproduce the deterministic makespans byte-identically on both
scheduler engines), the propagation of deterministic-replay diagnostics
(``SimulationResult.problems`` used to be silently dropped — now they fail
the stage), and the batch/payload surfaces.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.batch.engine import BatchSynthesisEngine
from repro.batch.cache import ResultCache
from repro.batch.cache_backends import decode_envelope, encode_envelope
from repro.batch.jobs import BatchJob
from repro.graph.library import assay_by_name, build_pcr
from repro.ilp import HighsBackend
from repro.simulation import montecarlo
from repro.synthesis.config import FlowConfig, SchedulerEngine
from repro.synthesis.flow import synthesize
from repro.synthesis.pipeline import (
    SynthesisPipeline,
    VerificationArtifact,
    VerificationError,
)


def verify_config(**overrides) -> FlowConfig:
    """A fast verifying config: list scheduler, few trials, no faults."""
    base = dict(
        num_mixers=2,
        ilp_operation_limit=0,
        verify=True,
        verify_trials=4,
    )
    base.update(overrides)
    return FlowConfig(**base)


# ------------------------------------------------------------- plan & keys


class TestStagePlanning:
    def test_verify_stage_only_planned_when_enabled(self):
        pipeline = SynthesisPipeline()
        graph = build_pcr()
        off = pipeline.plan(graph, FlowConfig(num_mixers=2))
        on = pipeline.plan(graph, verify_config())
        assert [p.stage.name for p in off] == ["schedule", "archsyn", "physical"]
        assert [p.stage.name for p in on] == [
            "schedule", "archsyn", "physical", "verify",
        ]

    def test_verify_key_chains_off_archsyn_not_physical(self):
        """A physical-only change (pitch) must keep the verify key; a
        schedule-slice change (transport_time) must invalidate it."""
        pipeline = SynthesisPipeline()
        graph = build_pcr()
        base = pipeline.plan(graph, verify_config())
        pitched = pipeline.plan(
            graph, verify_config(pitch=7.5)
        )
        assert base[2].key != pitched[2].key  # the physical key moved...
        assert base[3].key == pitched[3].key  # ...the verify key did not
        slower = pipeline.plan(graph, verify_config(transport_time=20))
        assert base[3].key != slower[3].key

    def test_verify_knobs_only_touch_the_verify_key(self):
        pipeline = SynthesisPipeline()
        graph = build_pcr()
        base = pipeline.plan(graph, verify_config())
        jittered = pipeline.plan(
            graph, verify_config(verify_jitter="uniform", verify_fault_rate=0.2)
        )
        assert [p.key for p in base[:3]] == [p.key for p in jittered[:3]]
        assert base[3].key != jittered[3].key

    def test_verify_workers_is_runtime_advice_and_leaves_every_key_alone(self):
        # Sharding the trials across processes changes wall time only; the
        # report is byte-identical, so a sharded run must replay a serial
        # run's cached verification artifact (and vice versa).
        pipeline = SynthesisPipeline()
        graph = build_pcr()
        base = pipeline.plan(graph, verify_config())
        sharded = pipeline.plan(graph, verify_config(verify_workers=6))
        assert [p.key for p in base] == [p.key for p in sharded]


# ----------------------------------------------------- differential goldens


#: PCR's ILP golden needs HiGHS: within the time limit, branch and bound
#: returns the 400 warm start, not the 330 optimum.
NEEDS_HIGHS = pytest.mark.skipif(
    not HighsBackend().is_available(), reason="scipy not installed"
)

DIFFERENTIAL = [
    pytest.param("RA30", SchedulerEngine.LIST, 650, 0, id="RA30-list"),
    pytest.param("IVD", SchedulerEngine.LIST, 280, 7, id="IVD-list"),
    pytest.param("IVD", SchedulerEngine.ILP, 280, 11, id="IVD-ilp"),
    pytest.param("PCR", SchedulerEngine.LIST, 400, 3, id="PCR-list"),
    pytest.param("PCR", SchedulerEngine.ILP, 330, 42, id="PCR-ilp", marks=NEEDS_HIGHS),
]


@pytest.mark.parametrize("assay,scheduler,makespan,seed", DIFFERENTIAL)
def test_fault_free_replay_reproduces_golden_makespans(assay, scheduler, makespan, seed):
    """Differential pin: a fault-free Monte-Carlo replay of each golden
    schedule reproduces the pinned makespan exactly, on both engines, for
    any seed — every trial, every percentile."""
    config = FlowConfig.paper_defaults_for(assay)
    config = dataclasses.replace(
        config,
        scheduler=scheduler,
        ilp_time_limit_s=20.0,
        verify=True,
        verify_trials=5,
        verify_seed=seed,
    )
    result = synthesize(assay_by_name(assay), config)
    assert result.scheduler_engine == scheduler.value
    assert result.schedule.makespan == makespan
    report = result.verification
    assert report is not None
    assert report.deterministic_makespan == makespan
    assert all(t.makespan == makespan for t in report.trials)
    assert (report.makespan_p50, report.makespan_p95, report.makespan_p99) == (
        makespan, makespan, makespan,
    )
    assert report.recovery_rate == 1.0
    assert report.violations == []
    assert result.simulation_problems == []


# --------------------------------------------------------- failure handling


class TestReplayDiagnostics:
    def test_replay_conflicts_fail_the_stage(self, monkeypatch):
        """A deterministic replay with resource conflicts must raise a
        VerificationError carrying the diagnostics, not drop them."""
        import repro.simulation.simulator as simulator_module

        class Broken:
            is_valid = False
            problems = ["segment (0, 1)->(0, 2) double-booked at t=40"]

        monkeypatch.setattr(
            simulator_module.ChipSimulator, "run", lambda self: Broken()
        )
        with pytest.raises(VerificationError) as excinfo:
            synthesize(build_pcr(), verify_config())
        assert excinfo.value.problems == Broken.problems
        assert "double-booked" in str(excinfo.value)

    def test_batch_job_fails_with_the_diagnostic(self, monkeypatch):
        import repro.simulation.simulator as simulator_module

        class Broken:
            is_valid = False
            problems = ["segment (1, 1)->(1, 2) double-booked at t=90"]

        monkeypatch.setattr(
            simulator_module.ChipSimulator, "run", lambda self: Broken()
        )
        report = BatchSynthesisEngine().run(
            [BatchJob("pcr", build_pcr(), verify_config())]
        )
        outcome = report.outcome("pcr")
        assert not outcome.ok
        assert "double-booked" in outcome.error
        assert outcome.payload()["verification"] is None


# ------------------------------------------------------------ batch surface


class TestBatchIntegration:
    def test_payload_carries_the_distribution(self):
        report = BatchSynthesisEngine().run(
            [BatchJob("pcr", build_pcr(), verify_config(
                verify_jitter="uniform", verify_fault_rate=0.3, verify_seed=5,
            ))]
        )
        payload = report.outcome("pcr").payload()
        block = payload["verification"]
        assert block is not None
        json.dumps(payload)  # must stay JSON-serializable end to end
        deterministic = report.outcome("pcr").result.schedule.makespan
        assert block["trials"] == 4
        assert block["deterministic_makespan"] == deterministic
        assert block["makespan_p50"] <= block["makespan_p99"]
        assert block["makespan_p50"] >= deterministic
        assert 0.0 <= block["recovery_rate"] <= 1.0
        assert block["simulation_problems"] == []
        stages = [s["stage"] for s in payload["stages"]]
        assert stages == ["schedule", "archsyn", "physical", "verify"]

    def test_unverified_jobs_report_no_block(self):
        report = BatchSynthesisEngine().run(
            [BatchJob("pcr", build_pcr(), FlowConfig(num_mixers=2,
                                                     ilp_operation_limit=0))]
        )
        payload = report.outcome("pcr").payload()
        assert payload["verification"] is None
        assert [s["stage"] for s in payload["stages"]] == [
            "schedule", "archsyn", "physical",
        ]

    def test_mixed_batch_runs_both_plan_lengths(self):
        """Three- and four-stage jobs coexist in one batch; the shorter
        plan simply skips the verify tier."""
        report = BatchSynthesisEngine(max_workers=2).run([
            BatchJob("plain", build_pcr(), FlowConfig(num_mixers=2,
                                                      ilp_operation_limit=0)),
            BatchJob("verified", build_pcr(), verify_config()),
        ])
        assert report.num_failed == 0
        summary = report.stage_summary()
        assert summary["verify"]["ran"] == 1
        # The schedule solve is shared between the two jobs.
        assert summary["schedule"]["ran"] == 1
        assert summary["schedule"]["shared"] + summary["schedule"]["replayed"] == 1
        assert report.outcome("verified").result.verification is not None
        assert report.outcome("plain").result.verification is None

    def test_pitch_sweep_replays_cached_verification(self, tmp_path, stage_runs):
        """The verify key chains off archsyn, so a pitch-only sweep pays
        for exactly one Monte-Carlo run (and one scheduling solve)."""
        cache = ResultCache(cache_dir=tmp_path / "cache")
        engine = BatchSynthesisEngine(cache=cache)
        report = engine.run([
            BatchJob("p6", build_pcr(), verify_config(pitch=6.0)),
            BatchJob("p8", build_pcr(), verify_config(pitch=8.0)),
        ])
        assert report.num_failed == 0
        counts = stage_runs
        assert counts.get("schedule") == 1
        assert counts.get("verify") == 1
        assert counts.get("physical") == 2
        a = report.outcome("p6").result.verification
        b = report.outcome("p8").result.verification
        assert a.as_dict() == b.as_dict()


class TestArtifactCompatibility:
    def test_report_pickled_with_the_dataclass_trial_result_is_a_miss(
        self, monkeypatch
    ):
        """``TrialResult`` was a frozen dataclass before it became a named
        tuple.  A verify artifact written then must decode as a miss — and
        be recomputed — never as a report holding wrong objects.  The stage
        keys name the same computation, so no key version bump is needed
        for this."""

        @dataclasses.dataclass(frozen=True)
        class TrialResult:  # the pre-named-tuple definition, field for field
            trial: int
            makespan: int
            faults_injected: int
            faults_recovered: int
            retries: int
            migrations: int
            reroutes: int
            washes: int

        TrialResult.__module__ = montecarlo.__name__
        TrialResult.__qualname__ = "TrialResult"
        artifact = VerificationArtifact(
            report=montecarlo.VerificationReport(
                trials=[TrialResult(t, 330 + t, 0, 0, 0, 0, 0, 0) for t in range(4)],
                deterministic_makespan=330,
            ),
            verification_time_s=0.01,
        )
        with monkeypatch.context() as patched:
            # pickle stores classes by reference: make the reference the
            # old class, as it was when such entries were written.
            patched.setattr(montecarlo, "TrialResult", TrialResult)
            old_entry = encode_envelope(artifact)
        assert decode_envelope(old_entry) == (False, None)

        current = VerificationArtifact(
            report=montecarlo.VerificationReport(
                trials=[montecarlo.TrialResult(t, 330 + t, 0, 0, 0, 0, 0, 0)
                        for t in range(4)],
                deterministic_makespan=330,
            ),
            verification_time_s=0.01,
        )
        ok, decoded = decode_envelope(encode_envelope(current))
        assert ok
        assert decoded.report.trials == current.report.trials
        assert decoded.report.as_dict() == current.report.as_dict()
