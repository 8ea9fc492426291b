"""Tests of the staged pipeline: keys, invariants, sharing, resume.

These pin the stage-cache contract the batch engine relies on:

* keys are content addresses — a stage's key changes iff its config slice
  or anything upstream changes;
* mutating only physical-design parameters reuses the cached schedule and
  architecture artifacts (exactly one scheduling solve for a whole sweep);
* mutating scheduler config invalidates every downstream stage;
* parallel and serial batches are byte-identical at stage granularity;
* a batch interrupted mid-pipeline resumes from the last completed stage.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.batch.cache import ResultCache
from repro.batch.engine import BatchSynthesisEngine
from repro.batch.jobs import BatchJob, expand_sweep
from repro.graph.library import assay_by_name, build_pcr
from repro.ilp import HighsBackend, SolverLimitError, SolverStatus
from repro.ilp.backends import DEFAULT_BACKEND
from repro.synthesis.config import RUNTIME_ADVICE_FIELDS, FlowConfig, SchedulerEngine
from repro.synthesis.pipeline import (
    DEFAULT_STAGES,
    VERIFY_STAGE,
    ArchSynthStage,
    SynthesisPipeline,
    graph_fingerprint,
)

from batch_summary import deterministic_summary


#: A registered backend other than the default, whichever that is.
OTHER_BACKEND = "branch-and-bound" if DEFAULT_BACKEND == "highs" else "highs"


def fast_config(**overrides) -> FlowConfig:
    """A solver-free configuration (list scheduler, heuristic synthesis)."""
    return FlowConfig(num_mixers=2, ilp_operation_limit=0, **overrides)


def covered_config_fields() -> set:
    """Union of every stage's config slice, the verify stage's included."""
    covered: set = set()
    for stage in DEFAULT_STAGES + (VERIFY_STAGE,):
        covered.update(stage.config_fields)
    return covered


def plan_keys(config: FlowConfig, graph=None):
    graph = graph if graph is not None else build_pcr()
    return [p.key for p in SynthesisPipeline().plan(graph, config)]


class TestStageKeys:
    def test_every_flow_config_field_belongs_to_a_stage(self):
        """A config field no stage consumes would silently stale the cache.

        Runtime-advice fields are the deliberate exception: they steer how
        fast a result is computed, never what it is, so they must stay out
        of every stage slice — and out of this completeness check.
        """
        covered = covered_config_fields()
        assert covered | RUNTIME_ADVICE_FIELDS == {
            f.name for f in fields(FlowConfig)
        }
        assert not covered & RUNTIME_ADVICE_FIELDS

    def test_physical_only_change_preserves_upstream_keys(self):
        base = plan_keys(fast_config())
        pitched = plan_keys(fast_config(pitch=6.0))
        assert pitched[0] == base[0]  # schedule untouched
        assert pitched[1] == base[1]  # architecture untouched
        assert pitched[2] != base[2]  # physical re-keyed

    def test_archsyn_change_preserves_schedule_but_invalidates_downstream(self):
        base = plan_keys(fast_config())
        regridded = plan_keys(fast_config(grid_rows=5, grid_cols=5))
        assert regridded[0] == base[0]
        assert regridded[1] != base[1]
        # The physical slice itself is unchanged, but its upstream hash is
        # the architecture key, so the chain invalidates transitively.
        assert regridded[2] != base[2]

    def test_scheduler_change_invalidates_all_downstream_stages(self):
        base = plan_keys(fast_config())
        retimed = plan_keys(fast_config(transport_time=11))
        assert retimed[0] != base[0]
        assert retimed[1] != base[1]
        assert retimed[2] != base[2]

    def test_graph_change_invalidates_everything(self):
        base = plan_keys(fast_config())
        other = plan_keys(fast_config(), graph=assay_by_name("IVD"))
        assert all(a != b for a, b in zip(base, other))

    def test_graph_fingerprint_ignores_name_and_order(self):
        from repro.graph.serialization import graph_from_dict, graph_to_dict

        base = build_pcr()
        data = graph_to_dict(base)
        data["name"] = "renamed"
        assert graph_fingerprint(base) == graph_fingerprint(graph_from_dict(data))

    def test_scheduler_backend_participates_in_the_schedule_key(self):
        """Acceptance: switching scheduler_backend on an otherwise-identical
        job is a cache miss (schedule key changes, downstream cascades)."""
        base = plan_keys(fast_config())
        rebackended = plan_keys(fast_config(scheduler_backend=OTHER_BACKEND))
        assert rebackended[0] != base[0]
        assert rebackended[1] != base[1]
        assert rebackended[2] != base[2]
        # Re-planning the same backend is key-identical (a cache hit).
        assert plan_keys(fast_config(scheduler_backend=OTHER_BACKEND)) == rebackended

    def test_archsyn_backend_only_touches_downstream_keys(self):
        base = plan_keys(fast_config())
        rebackended = plan_keys(fast_config(archsyn_backend=OTHER_BACKEND))
        assert rebackended[0] == base[0]  # schedule untouched
        assert rebackended[1] != base[1]
        assert rebackended[2] != base[2]

    def test_mip_rel_gap_invalidates_both_solver_stages(self):
        base = plan_keys(fast_config())
        gapped = plan_keys(fast_config(mip_rel_gap=0.1))
        assert gapped[0] != base[0]
        assert gapped[1] != base[1]


class TestStageReuse:
    def test_physical_sweep_solves_schedule_and_architecture_once(self, stage_runs):
        """Acceptance: a 2-point physical-design sweep = 1 schedule solve,
        1 architecture synthesis, 2 physical designs."""
        jobs = expand_sweep(
            {
                "assay": "PCR",
                "base": {"ilp_operation_limit": 0},
                "sweep": {"pitch": [5.0, 6.0]},
            }
        )
        report = BatchSynthesisEngine(max_workers=1, cache=ResultCache()).run(jobs)
        assert report.num_failed == 0
        assert stage_runs == {"schedule": 1, "archsyn": 1, "physical": 2}
        summary = report.stage_summary()
        assert summary["schedule"] == dict(summary["schedule"], ran=1, shared=1, replayed=0)
        assert summary["archsyn"] == dict(summary["archsyn"], ran=1, shared=1, replayed=0)
        assert summary["physical"]["ran"] == 2
        # Both points really produced distinct physical designs.
        first, second = (o.result for o in report)
        assert first.physical.expanded_dimensions != second.physical.expanded_dimensions
        # ...from the very same upstream artifacts.
        assert first.schedule is second.schedule
        assert first.architecture is second.architecture

    def test_scheduler_mutation_reruns_every_stage(self, stage_runs):
        cache = ResultCache()
        engine = BatchSynthesisEngine(max_workers=1, cache=cache)
        engine.run([BatchJob("a", build_pcr(), fast_config())])
        assert stage_runs == {"schedule": 1, "archsyn": 1, "physical": 1}
        engine.run([BatchJob("b", build_pcr(), fast_config(transport_time=11))])
        assert stage_runs == {"schedule": 2, "archsyn": 2, "physical": 2}

    def test_backend_switch_is_a_miss_and_rerun_is_a_hit(self, stage_runs):
        """Acceptance, engine-level: a scheduler_backend switch re-executes
        the pipeline; re-running the switched backend replays everything."""
        cache = ResultCache()
        engine = BatchSynthesisEngine(max_workers=1, cache=cache)
        engine.run([BatchJob("a", build_pcr(), fast_config())])
        assert stage_runs == {"schedule": 1, "archsyn": 1, "physical": 1}
        switched = fast_config(scheduler_backend=OTHER_BACKEND)
        report = engine.run([BatchJob("b", build_pcr(), switched)])
        assert stage_runs == {"schedule": 2, "archsyn": 2, "physical": 2}
        assert [e.action for e in report.outcomes[0].stages] == ["ran", "ran", "ran"]
        # Identical job again: full cache hit, zero new solves.
        rerun = engine.run([BatchJob("c", build_pcr(), switched)])
        assert stage_runs == {"schedule": 2, "archsyn": 2, "physical": 2}
        assert rerun.outcomes[0].cache_hit

    def test_run_one_shares_stages_across_calls(self, stage_runs):
        engine = BatchSynthesisEngine(max_workers=1, cache=ResultCache())
        engine.run_one(BatchJob("a", build_pcr(), fast_config(pitch=5.0)))
        engine.run_one(BatchJob("b", build_pcr(), fast_config(pitch=6.0)))
        assert stage_runs == {"schedule": 1, "archsyn": 1, "physical": 2}

    def test_disk_cache_resumes_stages_across_engines(self, tmp_path, stage_runs):
        """A second engine over the same cache_dir replays stage artifacts."""
        first = BatchSynthesisEngine(cache=ResultCache(cache_dir=tmp_path))
        first.run([BatchJob("a", build_pcr(), fast_config(pitch=5.0))])
        # Fresh engine + fresh memory tier: only the disk artifacts survive,
        # and a *different* downstream config still reuses them.
        second = BatchSynthesisEngine(cache=ResultCache(cache_dir=tmp_path))
        report = second.run([BatchJob("b", build_pcr(), fast_config(pitch=6.0))])
        assert stage_runs == {"schedule": 1, "archsyn": 1, "physical": 2}
        outcome = report.outcomes[0]
        assert [e.action for e in outcome.stages] == ["replayed", "replayed", "ran"]

    @pytest.mark.parametrize(
        "exact",
        [
            pytest.param(
                True,
                id="ilp-highs",
                marks=pytest.mark.skipif(
                    not HighsBackend().is_available(), reason="scipy not installed"
                ),
            ),
            pytest.param(False, id="list-heuristic"),
        ],
    )
    def test_solver_provenance_survives_a_disk_replay(self, tmp_path, exact):
        """The SolveRecord rides inside the cached artifacts: a fresh engine
        replaying them from disk reports the provenance of the original
        solve, and heuristic stages carry none."""
        if exact:
            config = FlowConfig(
                num_mixers=2, scheduler=SchedulerEngine.ILP,
                scheduler_backend="highs", ilp_time_limit_s=20.0,
            )
        else:
            config = fast_config()

        def run():
            engine = BatchSynthesisEngine(cache=ResultCache(cache_dir=tmp_path))
            return engine.run([BatchJob("pcr", build_pcr(), config)])

        def stage_rows(report):
            return [
                {k: v for k, v in row.items() if k not in ("action", "wall_time_s")}
                for row in report.to_json_payload()["jobs"][0]["stages"]
            ]

        fresh, replay = run(), run()
        assert [e.action for e in fresh.outcomes[0].stages] == ["ran"] * 3
        assert [e.action for e in replay.outcomes[0].stages] == ["replayed"] * 3
        assert stage_rows(replay) == stage_rows(fresh)
        fresh_result, replayed_result = fresh.outcomes[0].result, replay.outcomes[0].result
        assert replayed_result.schedule.solve == fresh_result.schedule.solve
        assert replayed_result.architecture.solve is None
        if exact:
            assert replayed_result.schedule.solve.status is SolverStatus.OPTIMAL
            assert replayed_result.schedule.solve.backend == "highs"
            assert stage_rows(replay)[0]["backend"] == "highs"
        else:
            assert replayed_result.schedule.solve is None


class TestParallelStageGranularity:
    def test_parallel_matches_serial_byte_identical_per_stage(self):
        jobs = lambda: expand_sweep(  # noqa: E731 - fresh jobs per engine
            {
                "assay": "PCR",
                "base": {"ilp_operation_limit": 0},
                "sweep": {"pitch": [5.0, 6.0], "min_channel_spacing": [1.0, 2.0]},
            }
        )
        serial = BatchSynthesisEngine(max_workers=1, cache=ResultCache()).run(jobs())
        parallel = BatchSynthesisEngine(max_workers=3, cache=ResultCache()).run(jobs())
        assert deterministic_summary(serial) == deterministic_summary(parallel)
        for s_out, p_out in zip(serial, parallel):
            assert [e.key for e in s_out.stages] == [e.key for e in p_out.stages]
            s_res, p_res = s_out.result, p_out.result
            assert sorted(
                (e.op_id, e.device_id, e.start, e.end) for e in s_res.schedule.entries()
            ) == sorted(
                (e.op_id, e.device_id, e.start, e.end) for e in p_res.schedule.entries()
            )
            assert s_res.physical.compact_dimensions == p_res.physical.compact_dimensions


class TestCrashResume:
    def test_resume_from_last_completed_stage(self, monkeypatch, stage_runs):
        """After a mid-pipeline failure the schedule artifact survives, so
        the retry resumes from the architecture stage."""
        real_run = ArchSynthStage.run
        crashes = {"left": 1}

        def flaky_run(self, context, upstream):
            if crashes["left"]:
                crashes["left"] -= 1
                raise SolverLimitError("worker lost mid-synthesis")
            return real_run(self, context, upstream)

        monkeypatch.setattr(ArchSynthStage, "run", flaky_run)
        engine = BatchSynthesisEngine(max_workers=1, cache=ResultCache())
        job = BatchJob("a", build_pcr(), fast_config())
        first = engine.run([job])
        assert first.num_failed == 1
        assert stage_runs == {"schedule": 1}  # archsyn died before counting

        second = engine.run([job])
        assert second.num_failed == 0
        # The schedule was *not* re-solved: its artifact was stored before
        # the crash and replayed on the retry.
        assert stage_runs == {"schedule": 1, "archsyn": 1, "physical": 1}
        actions = [e.action for e in second.outcomes[0].stages]
        assert actions == ["replayed", "ran", "ran"]


class TestSeedThreading:
    def test_default_seed_is_inert_and_nonzero_seed_reroutes_reproducibly(self):
        base = SynthesisPipeline().run(build_pcr(), fast_config())
        seeded_a = SynthesisPipeline().run(build_pcr(), fast_config(seed=1234))
        seeded_b = SynthesisPipeline().run(build_pcr(), fast_config(seed=1234))
        # Bit-reproducible: the same seed gives the same architecture.
        sig = lambda r: sorted(  # noqa: E731
            (t.task.task_id, tuple(s.nodes for s in t.subpaths))
            for t in r.architecture.routed_tasks
        )
        assert sig(seeded_a) == sig(seeded_b)
        assert seeded_a.schedule.makespan == base.schedule.makespan
        assert seeded_a.architecture.validate() == []

    def test_seed_only_touches_the_archsyn_stage_key(self):
        base = plan_keys(fast_config())
        seeded = plan_keys(fast_config(seed=1234))
        assert seeded[0] == base[0]
        assert seeded[1] != base[1]

    def test_paper_random_assay_root_seed_derivation(self):
        from repro.graph.generators import paper_random_assay

        legacy = paper_random_assay(30)
        again = paper_random_assay(30)
        assert graph_fingerprint(legacy) == graph_fingerprint(again)
        rooted_a = paper_random_assay(30, root_seed=99)
        rooted_b = paper_random_assay(30, root_seed=99)
        assert graph_fingerprint(rooted_a) == graph_fingerprint(rooted_b)
        assert graph_fingerprint(rooted_a) != graph_fingerprint(legacy)
