"""Tests of the exploration engine: strategies, budget, resume, counters.

Every spec here pins ``ilp_operation_limit: 0`` so the list scheduler and
heuristic synthesizer run in milliseconds — the tests exercise the
exploration machinery, not the solvers.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.batch.cache import ResultCache
from repro.batch.engine import BatchSynthesisEngine
from repro.explore import (
    STRATEGIES,
    ExplorationEngine,
    ExplorationSpec,
    SearchStrategy,
    get_strategy,
    is_dominance_consistent,
    strategy_names,
)
from repro.explore.spec import candidate_job, enumerate_candidates
from repro.ilp.backends import DEFAULT_BACKEND
from repro.obs.trace import TraceRecorder, install_recorder, uninstall_recorder
from repro.synthesis.pipeline import ScheduleStage, SynthesisPipeline


def make_spec(**overrides):
    payload = {
        "name": "test",
        "workloads": [
            {"assay": "PCR"},
            {"generator": "random_assay", "num_operations": 10, "seed": 3,
             "id": "ra10"},
        ],
        "axes": {"num_mixers": [2, 3], "pitch": [5.0, 6.0]},
        "base": {"ilp_operation_limit": 0},
        "objectives": ["makespan", "storage_cells", "device_count"],
        "strategy": "exhaustive",
    }
    payload.update(overrides)
    return ExplorationSpec.from_payload(payload)


def triage_failure_spec():
    """An IVD spec whose no-detector candidate fails in the triage pass."""
    return ExplorationSpec.from_payload({
        "workloads": [{"assay": "IVD"}],
        "axes": {"num_detectors": [0, 2]},
        "base": {"ilp_operation_limit": 0},
        "strategy": "successive-halving",
    })


def failing_job(spec):
    """The job of ``triage_failure_spec``'s no-detector candidate."""
    candidate = next(
        c for c in enumerate_candidates(spec)
        if c.candidate_id == "IVD/num_detectors=0"
    )
    return candidate_job(spec, candidate)


class TestExhaustiveExploration:
    def test_acceptance_scale_run_shares_scheduling_solves(self):
        """≥20 configs over two workload families, strictly fewer schedule
        solves than evaluated configs, dominance-consistent frontier."""
        spec = make_spec(
            axes={"num_mixers": [2, 3], "pitch": [5.0, 6.0, 7.0],
                  "storage_segment_length": [3.0, 4.0]},
        )
        assert spec.candidate_count() == 24
        report = ExplorationEngine(spec).run()
        assert report.evaluated == 24
        assert report.failed == 0
        # pitch/storage_segment_length never touch the schedule slice:
        # 2 workloads × 2 mixer counts = 4 scheduling solves for 24 configs.
        assert report.scheduling_solves == 4
        assert report.scheduling_solves < report.evaluated
        assert len(report.frontier) >= 2
        assert is_dominance_consistent(report.frontier.entries(), spec.objectives)

    def test_budget_caps_full_evaluations(self):
        spec = make_spec(budget=3)
        report = ExplorationEngine(spec).run()
        assert report.evaluated == 3
        assert report.candidate_count == 8

    def test_failed_candidates_stay_off_the_frontier(self):
        spec = ExplorationSpec.from_payload({
            "workloads": [{"assay": "IVD"}],
            "axes": {"num_detectors": [0, 2]},
            "base": {"ilp_operation_limit": 0},
        })
        report = ExplorationEngine(spec).run()
        assert report.evaluated == 2
        assert report.failed == 1
        assert len(report.frontier) == 1
        assert "IVD/num_detectors=0" in report.errors

    def test_summary_and_payload_shapes(self):
        report = ExplorationEngine(make_spec(budget=2)).run()
        summary = report.summary()
        assert summary["kind"] == "exploration"
        assert summary["evaluated"] == 2
        assert summary["scheduling_solves"] >= 1
        payload = report.to_json_payload()
        json.dumps(payload)  # must be JSON-serializable end to end
        assert payload["spec"]["strategy"] == "exhaustive"
        assert all("objectives" in e for e in payload["frontier"])


class TestRandomStrategy:
    def test_budget_and_seed_determinism(self):
        a = ExplorationEngine(make_spec(strategy="random", budget=3, seed=7)).run()
        b = ExplorationEngine(make_spec(strategy="random", budget=3, seed=7)).run()
        assert a.evaluated == b.evaluated == 3
        assert sorted(a.errors) == sorted(b.errors) == []
        ids_a = sorted(e["candidate_id"] for e in a.to_json_payload()["frontier"])
        ids_b = sorted(e["candidate_id"] for e in b.to_json_payload()["frontier"])
        assert ids_a == ids_b

    def test_resume_tops_the_budget_up_from_unevaluated_candidates(self, tmp_path):
        """A resumed random run must not waste draws on evaluated ids."""
        state = tmp_path / "state.json"
        first = ExplorationEngine(
            make_spec(strategy="random", budget=3, seed=7), state_path=state
        ).run()
        assert first.evaluated == 3
        second = ExplorationEngine(
            make_spec(strategy="random", budget=6, seed=7), state_path=state
        ).run()
        # The sample pool excludes the three resumed candidates, so the
        # lifted budget is filled exactly — not silently under-filled by
        # overlapping draws.
        assert second.resumed
        assert second.evaluated == 6

    def test_different_seed_samples_differently(self):
        spec_a = make_spec(strategy="random", budget=3, seed=1)
        spec_b = make_spec(strategy="random", budget=3, seed=2)
        a = ExplorationEngine(spec_a).run()
        b = ExplorationEngine(spec_b).run()
        evaluated_a = set(json.loads(json.dumps(sorted(a.errors))))  # none fail
        assert a.evaluated == b.evaluated == 3
        # With 8 candidates and different seeds the 3-samples differ with
        # overwhelming probability; compare the evaluated id sets via state.
        assert evaluated_a == set()


class TestSuccessiveHalving:
    def test_prunes_cheap_dominated_configs(self):
        spec = make_spec(strategy="successive-halving")
        report = ExplorationEngine(spec).run()
        # The cheap pass covers every candidate; the full pass only the
        # cheap-nondominated ones.
        assert report.evaluated < report.candidate_count
        assert report.scheduling_solves < report.evaluated + 1
        assert is_dominance_consistent(report.frontier.entries(), spec.objectives)

    def test_cheap_pass_shares_schedule_solves_with_full_pass(self):
        spec = make_spec(strategy="successive-halving")
        report = ExplorationEngine(spec).run()
        schedule_row = report.stage_totals["schedule"]
        # 2 workloads × 2 mixer counts = 4 unique schedule keys; the full
        # pass replays them from the cache rather than re-solving.
        assert schedule_row["ran"] == 4
        assert schedule_row["replayed"] >= report.evaluated

    def test_degrades_to_exhaustive_without_cheap_objectives(self):
        spec = make_spec(
            strategy="successive-halving", objectives=["chip_area", "wall_time"]
        )
        report = ExplorationEngine(spec).run()
        assert report.evaluated == report.candidate_count

    def test_cheap_triage_solve_time_lands_in_the_stage_totals(self, monkeypatch):
        """The triage pass's real solves must not report 0.00 s solve time."""
        import itertools
        import time as time_module

        ticks = itertools.count()
        monkeypatch.setattr(
            time_module, "perf_counter", lambda: float(next(ticks))
        )
        spec = make_spec(strategy="successive-halving")
        report = ExplorationEngine(spec).run()
        assert report.stage_totals["schedule"]["ran"] == 4
        assert report.stage_totals["schedule"]["wall_time_s"] > 0

    def test_cheap_stage_failures_are_recorded(self):
        spec = ExplorationSpec.from_payload({
            "workloads": [{"assay": "IVD"}],
            "axes": {"num_detectors": [0, 2]},
            "base": {"ilp_operation_limit": 0},
            "strategy": "successive-halving",
        })
        report = ExplorationEngine(spec).run()
        assert "IVD/num_detectors=0" in report.errors
        assert len(report.frontier) == 1

    def test_triage_failures_do_not_consume_the_budget(self):
        """A schedule-only triage casualty must not starve the healthy
        survivor of the single full-evaluation slot the budget grants."""
        spec = ExplorationSpec.from_payload({
            "workloads": [{"assay": "IVD"}],
            "axes": {"num_detectors": [0, 2]},
            "base": {"ilp_operation_limit": 0},
            "strategy": "successive-halving",
            "budget": 1,
        })
        report = ExplorationEngine(spec).run()
        assert len(report.frontier) == 1
        assert "IVD/num_detectors=0" in report.errors
        # One full evaluation happened (the survivor) plus the recorded
        # triage failure; the run is a success, not 'all failed'.
        assert report.failed < report.evaluated

    def test_duplicate_triage_keys_count_as_shared(self):
        """Candidates differing only in pitch share a schedule key: the
        triage pass solves each key once and the duplicates ride along."""
        report = ExplorationEngine(make_spec(strategy="successive-halving")).run()
        schedule_row = report.stage_totals["schedule"]
        assert schedule_row["ran"] == 4
        assert schedule_row["shared"] == 4
        # Only the full pass replays: one schedule per evaluated candidate.
        assert schedule_row["replayed"] == report.evaluated

    def test_triage_solves_are_traced_as_stage_spans(self):
        rec = TraceRecorder()
        token = install_recorder(rec)
        try:
            ExplorationEngine(make_spec(strategy="successive-halving")).run()
        finally:
            uninstall_recorder(token)
        ran = [
            s for s in rec.spans()
            if s.name == "stage:schedule" and s.attributes.get("action") == "ran"
        ]
        # The four triage solves; the full pass replays every schedule.
        assert len(ran) == 4
        assert all(len(s.attributes["key"]) == 16 for s in ran)

    def test_triage_failure_is_memoized_for_the_full_job(self, monkeypatch):
        spec = triage_failure_spec()
        engine = ExplorationEngine(spec)
        engine.run()
        calls = []
        original = ScheduleStage.run

        def counting(self, context, upstream):
            calls.append(context.config.num_detectors)
            return original(self, context, upstream)

        monkeypatch.setattr(ScheduleStage, "run", counting)
        outcome = engine.batch_engine.run([failing_job(spec)]).outcomes[0]
        assert "no device can execute" in outcome.error
        assert outcome.cache_hit is True
        assert outcome.stages == []
        assert calls == []

    def test_failing_triage_probe_releases_its_claim(self):
        cache = ResultCache(claim_timeout_s=30.0)
        spec = triage_failure_spec()
        report = ExplorationEngine(
            spec, batch_engine=BatchSynthesisEngine(cache=cache)
        ).run()
        assert "IVD/num_detectors=0" in report.errors
        job = failing_job(spec)
        key = SynthesisPipeline().plan(job.graph, job.config)[0].key
        start = time.monotonic()
        # A second engine's lookup claims the key at once instead of
        # waiting out the 30 s claim timeout.
        assert BatchSynthesisEngine(cache=cache).cache.get(key) is None
        assert time.monotonic() - start < 5.0
        assert key in cache._inflight
        cache.abandon(key)


class TestResume:
    def test_resume_skips_evaluated_candidates(self, tmp_path):
        state = tmp_path / "state.json"
        cache_dir = tmp_path / "cache"
        first = ExplorationEngine(
            make_spec(budget=3),
            cache=ResultCache(cache_dir=cache_dir),
            state_path=state,
        ).run()
        assert not first.resumed and first.evaluated == 3

        second = ExplorationEngine(
            make_spec(),  # budget lifted: the rerun continues the search
            cache=ResultCache(cache_dir=cache_dir),
            state_path=state,
        ).run()
        assert second.resumed
        assert second.evaluated == 8
        # The three pre-paid candidates were not re-synthesized: only the
        # five new ones appear in this run's stage totals.
        physical_row = second.stage_totals["physical"]
        assert physical_row["ran"] + physical_row["shared"] + physical_row["replayed"] == 5
        assert is_dominance_consistent(
            second.frontier.entries(), second.spec.objectives
        )

    def test_identical_rerun_is_a_no_op(self, tmp_path):
        state = tmp_path / "state.json"
        spec = make_spec()
        ExplorationEngine(spec, state_path=state).run()
        rerun = ExplorationEngine(make_spec(), state_path=state).run()
        assert rerun.resumed
        assert rerun.evaluated == 8
        assert rerun.scheduling_solves == 0
        assert len(rerun.frontier) >= 2

    def test_state_of_a_different_spec_is_refused(self, tmp_path):
        state = tmp_path / "state.json"
        ExplorationEngine(make_spec(budget=1), state_path=state).run()
        other = make_spec(axes={"num_mixers": [4]})
        with pytest.raises(ValueError, match="different"):
            ExplorationEngine(other, state_path=state).run()

    def test_warm_cache_fresh_state_replays_stages(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ExplorationEngine(
            make_spec(), cache=ResultCache(cache_dir=cache_dir)
        ).run()
        warm = ExplorationEngine(
            make_spec(), cache=ResultCache(cache_dir=cache_dir)
        ).run()
        assert not warm.resumed
        assert warm.evaluated == 8
        assert warm.scheduling_solves == 0  # every solve replayed from disk


class TestStrategyMap:
    def test_builtin_names(self):
        assert strategy_names() == ("exhaustive", "random", "successive-halving")

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            get_strategy("nope")

    def test_every_strategy_is_keyed_by_its_name(self):
        for name in strategy_names():
            assert get_strategy(name).name == name

    def test_engine_runs_the_strategy_the_spec_names(self, monkeypatch):
        class FirstOnly(SearchStrategy):
            name = "first-only"

            def run(self, context):
                context.evaluate(context.candidates[:1])

        monkeypatch.setitem(STRATEGIES, FirstOnly.name, FirstOnly())
        spec = make_spec()
        spec.strategy = "first-only"
        report = ExplorationEngine(spec).run()
        assert report.evaluated == 1


class TestGraphMemoization:
    def test_generator_graph_built_once_end_to_end(self, monkeypatch):
        """Validation probe + engine crossing a generator workload with an
        axes grid must generate the seeded graph exactly once overall."""
        import repro.batch.jobs as jobs_module
        from repro.graph.generators import generated_graph as real_generated_graph

        calls = []

        def counting(generator_spec):
            calls.append(generator_spec)
            return real_generated_graph(generator_spec)

        monkeypatch.setattr(jobs_module, "generated_graph", counting)
        spec = make_spec()  # the load-time probe performs the one build
        report = ExplorationEngine(spec).run()
        assert report.evaluated == 8
        # One generator workload (ra10): probed once, then reused by all
        # four of its grid candidates.
        assert len(calls) == 1


class TestEngineValidation:
    def test_solver_override_threads_into_candidates(self):
        spec = make_spec(budget=1)
        other_backend = "branch-and-bound" if DEFAULT_BACKEND == "highs" else "highs"
        engine = ExplorationEngine(spec, solver=other_backend)
        report = engine.run()
        assert report.evaluated == 1
        # The override participates in the stage keys exactly like a
        # manifest-level backend choice: a differently-solvered rerun on
        # the same cache misses.
        other = ExplorationEngine(
            make_spec(budget=1), batch_engine=engine.batch_engine
        ).run()
        assert other.scheduling_solves == 1
