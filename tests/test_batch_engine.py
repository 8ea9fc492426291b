"""Tests of the batch-synthesis engine, manifests, sweeps, and the CLI."""

import json
import threading
import time
from dataclasses import replace

import pytest

from repro.batch.cache import ResultCache, cache_key
from repro.batch.engine import BatchSynthesisEngine
from repro.batch.jobs import BatchJob, expand_sweep, job_from_spec, load_manifest
from repro.batch.report import BatchReport, JobOutcome, format_batch_report
from repro.cli import main
from repro.experiments.common import PAPER_ASSAY_ORDER, ExperimentSettings, assay_job
from repro.explore import ExplorationEngine, ExplorationSpec
from repro.explore.spec import candidate_job, enumerate_candidates
from repro.graph.library import assay_by_name, build_pcr
from repro.graph.serialization import save_graph
from repro.obs.trace import TraceRecorder, install_recorder, uninstall_recorder
from repro.synthesis.config import FlowConfig
from repro.synthesis.pipeline import ScheduleStage

from batch_summary import deterministic_summary


def fast_jobs(names):
    """Table 2 jobs with the fast experiment settings (list scheduler)."""
    settings = ExperimentSettings(fast=True, ilp_time_limit_s=5.0)
    jobs = []
    for name in names:
        job = assay_job(name, settings)
        job.config.ilp_operation_limit = 0  # keep the test suite solver-free
        jobs.append(job)
    return jobs


class TestEngine:
    def test_serial_run_produces_results_in_job_order(self):
        jobs = fast_jobs(["PCR", "IVD", "RA30"])
        report = BatchSynthesisEngine(max_workers=1).run(jobs)
        assert [o.job_id for o in report] == ["PCR", "IVD", "RA30"]
        assert report.num_failed == 0
        assert report.num_executed == 3
        assert all(o.result is not None for o in report)

    def test_parallel_matches_serial_on_table2_set(self):
        """Acceptance: N-way parallel == serial, byte for byte, in order."""
        serial = BatchSynthesisEngine(max_workers=1, cache=ResultCache())
        parallel = BatchSynthesisEngine(max_workers=4, cache=ResultCache())
        serial_report = serial.run(fast_jobs(PAPER_ASSAY_ORDER))
        parallel_report = parallel.run(fast_jobs(PAPER_ASSAY_ORDER))
        assert [o.job_id for o in parallel_report] == PAPER_ASSAY_ORDER
        assert deterministic_summary(parallel_report) == deterministic_summary(serial_report)

    def test_warm_cache_run_invokes_zero_solvers(self, stage_runs):
        """Acceptance: a second run of the same jobs never runs a stage."""
        engine = BatchSynthesisEngine(max_workers=1, cache=ResultCache())
        cold = engine.run(fast_jobs(["PCR", "IVD"]))
        assert cold.num_executed == 2
        cold_invocations = dict(stage_runs)
        assert cold_invocations == {"schedule": 2, "archsyn": 2, "physical": 2}

        warm = engine.run(fast_jobs(["PCR", "IVD"]))
        assert stage_runs == cold_invocations  # zero new solver runs
        assert warm.num_cache_hits == 2
        assert warm.num_executed == 0
        assert deterministic_summary(warm) == deterministic_summary(cold)
        # cache_stats is a per-batch delta, not the cache's lifetime counters.
        # The warm run is resolved entirely from the assembled-result tier:
        # one memory hit per job, not a single stage lookup.
        assert warm.cache_stats.hits == 2
        assert warm.cache_stats.misses == 0
        # A cold job misses its run-level key and each of its three stage
        # keys once; everything it computes is stored.
        assert cold.cache_stats.misses == 8
        assert cold.cache_stats.stores == 8

    def test_warm_parallel_run_never_spawns_a_pool(self, monkeypatch):
        import repro.batch.engine as engine_module

        engine = BatchSynthesisEngine(max_workers=4, cache=ResultCache())
        engine.run(fast_jobs(["PCR", "IVD"]))

        def no_pool(*args, **kwargs):
            raise AssertionError("a warm batch must not spawn worker processes")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", no_pool)
        warm = engine.run(fast_jobs(["PCR", "IVD"]))
        assert warm.num_cache_hits == 2

    def test_duplicate_jobs_in_one_batch_are_solved_once(self, stage_runs):
        jobs = fast_jobs(["PCR"]) + fast_jobs(["PCR"])
        report = BatchSynthesisEngine(max_workers=1, cache=ResultCache()).run(jobs)
        assert stage_runs == {"schedule": 1, "archsyn": 1, "physical": 1}
        assert len(report) == 2
        assert report.outcomes[0].cache_hit is False
        assert report.outcomes[1].cache_hit is True
        assert report.outcomes[0].result is report.outcomes[1].result
        # The duplicate never performs its own lookups, so the batch's stats
        # show only the first job's misses (run key + three stage keys) —
        # not a contradictory hit count exceeding the lookups.
        assert report.cache_stats.misses == 4
        assert report.cache_stats.lookups == 4

    def test_failures_are_captured_per_job(self):
        # IVD needs detectors; with none the scheduler cannot bind the
        # detection operations, so this job fails while PCR succeeds.
        bad = BatchJob("bad-ivd", assay_by_name("IVD"),
                       FlowConfig(num_mixers=2, num_detectors=0, ilp_operation_limit=0))
        jobs = fast_jobs(["PCR"]) + [bad]
        report = BatchSynthesisEngine(max_workers=1).run(jobs)
        assert report.num_failed == 1
        outcome = report.outcome("bad-ivd")
        assert outcome.result is None
        assert outcome.error
        with pytest.raises(ValueError, match="bad-ivd"):
            outcome.metrics()
        assert "FAILED" in deterministic_summary(report)
        assert "FAILED" in format_batch_report(report)

    def test_failed_jobs_are_memoized_without_poisoning_results(self, monkeypatch):
        cache = ResultCache()
        bad = BatchJob("bad-ivd", assay_by_name("IVD"),
                       FlowConfig(num_mixers=2, num_detectors=0, ilp_operation_limit=0))
        engine = BatchSynthesisEngine(max_workers=1, cache=cache)
        first = engine.run([bad])
        assert len(cache) == 0  # no result entry for a failed job
        error = first.outcomes[0].error
        assert error

        def no_rerun(self, context, upstream):
            raise AssertionError("a memoized failure must not re-run synthesis")

        monkeypatch.setattr(ScheduleStage, "run", no_rerun)
        rerun = engine.run([bad])
        assert rerun.outcomes[0].error == error
        assert rerun.outcomes[0].cache_hit is True
        assert rerun.num_executed == 0
        # run_one re-raises the memoized exception (original type/message),
        # solver-free.
        with pytest.raises(RuntimeError, match="no device can execute"):
            engine.run_one(bad)

    def test_limit_failures_are_not_memoized(self, monkeypatch):
        """A solver-limit failure is load-dependent: identical re-runs retry,
        through run and run_one alike."""
        from repro.ilp import SolverLimitError

        calls = []

        def limited_stage_run(self, context, upstream):
            calls.append(context.graph.name)
            raise SolverLimitError("ILP scheduling failed: time_limit")

        monkeypatch.setattr(ScheduleStage, "run", limited_stage_run)
        engine = BatchSynthesisEngine(max_workers=1, cache=ResultCache())
        job = fast_jobs(["PCR"])[0]
        first = engine.run([job])
        second = engine.run([job])
        assert len(calls) == 2
        assert first.num_failed == second.num_failed == 1
        assert second.outcomes[0].cache_hit is False
        for _ in range(2):
            with pytest.raises(SolverLimitError, match="time_limit"):
                engine.run_one(job)
        assert len(calls) == 4
        # The exploration engine's triage pass does not memoize one either.
        spec = ExplorationSpec.from_payload({
            "workloads": [{"assay": "PCR"}],
            "axes": {"num_mixers": [2]},
            "base": {"ilp_operation_limit": 0},
            "objectives": ["makespan", "storage_cells"],
            "strategy": "successive-halving",
        })
        report = ExplorationEngine(spec, batch_engine=engine).run()
        assert "time_limit" in report.errors["PCR/num_mixers=2"]
        assert len(calls) == 5
        triaged = candidate_job(spec, enumerate_candidates(spec)[0])
        assert engine.run([triaged]).num_failed == 1
        assert len(calls) == 6

    def test_alias_jobs_report_their_own_graph_name(self):
        """Content-aliased jobs share a result but keep their own assay label."""
        from repro.graph.serialization import graph_from_dict, graph_to_dict

        base = assay_by_name("PCR")
        data = graph_to_dict(base)
        data["name"] = "PCR-copy"
        renamed = graph_from_dict(data)
        config = FlowConfig(num_mixers=2, ilp_operation_limit=0)
        jobs = [BatchJob("a", base, config), BatchJob("b", renamed, config)]
        report = BatchSynthesisEngine(max_workers=1).run(jobs)
        assert report.outcomes[1].cache_hit is True
        assert report.outcomes[0].metrics().assay == "PCR"
        assert report.outcomes[1].metrics().assay == "PCR-copy"

    def test_fail_fast_raises(self):
        bad = BatchJob("bad-ivd", assay_by_name("IVD"),
                       FlowConfig(num_mixers=2, num_detectors=0, ilp_operation_limit=0))
        engine = BatchSynthesisEngine(max_workers=1, fail_fast=True)
        with pytest.raises(Exception):
            engine.run([bad])

    def test_run_one_uses_the_cache(self):
        engine = BatchSynthesisEngine(max_workers=1, cache=ResultCache())
        job = fast_jobs(["PCR"])[0]
        first = engine.run_one(job)
        second = engine.run_one(job)
        assert first is second

    def test_run_one_resolves_stages_like_run(self):
        """run_one and run([job]) share one tier runner: the same stage
        keys and actions (read off the stage spans) and the same summary."""
        job = fast_jobs(["PCR"])[0]

        def traced(call):
            rec = TraceRecorder()
            token = install_recorder(rec)
            try:
                value = call()
            finally:
                uninstall_recorder(token)
            stages = [
                (s.attributes["stage"], s.attributes["key"], s.attributes["action"])
                for s in rec.spans()
                if s.category == "stage"
            ]
            return value, stages

        result, one_stages = traced(
            lambda: BatchSynthesisEngine(cache=ResultCache()).run_one(job)
        )
        report, batch_stages = traced(
            lambda: BatchSynthesisEngine(cache=ResultCache()).run([job])
        )
        assert one_stages == batch_stages
        ran = [(e.stage, e.key[:16], e.action) for e in report.outcomes[0].stages]
        assert [row for row in one_stages if row[2] == "ran"] == ran
        single = BatchReport(
            outcomes=[
                JobOutcome(
                    job_id=job.job_id,
                    cache_key=cache_key(job.graph, job.config),
                    result=result,
                )
            ]
        )
        assert deterministic_summary(single) == deterministic_summary(report)

    def test_run_one_hands_the_warm_hint_to_the_schedule_stage(self, monkeypatch):
        seen = []
        original = ScheduleStage.run

        def spy(self, context, upstream):
            seen.append(context.warm_start)
            return original(self, context, upstream)

        monkeypatch.setattr(ScheduleStage, "run", spy)
        hint = object()  # the list scheduler ignores it; only its delivery counts
        job = replace(fast_jobs(["PCR"])[0], warm_hint=hint)
        BatchSynthesisEngine(cache=ResultCache()).run_one(job)
        assert seen == [hint]

    def test_two_engines_on_one_cache_schedule_a_job_once(self, monkeypatch):
        """Two engines on two threads share one plain cache and run the same
        job at once: the second engine's schedule lookup waits on the first
        engine's claim and replays its artifact instead of scheduling too."""
        runs = []
        original = ScheduleStage.run

        def slow_run(self, context, upstream):
            runs.append(context)
            time.sleep(0.3)  # both engines look the key up while it runs
            return original(self, context, upstream)

        monkeypatch.setattr(ScheduleStage, "run", slow_run)
        cache = ResultCache()
        barrier = threading.Barrier(2)
        reports = []

        def run():
            barrier.wait()
            reports.append(BatchSynthesisEngine(cache=cache).run(fast_jobs(["IVD"])))

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(runs) == 1
        assert len(reports) == 2 and all(r.num_failed == 0 for r in reports)
        schedule_actions = sorted(r.outcomes[0].stages[0].action for r in reports)
        assert schedule_actions == ["ran", "replayed"]
        assert cache.stats.claim_waits >= 1

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            BatchSynthesisEngine(max_workers=0)


class TestManifest:
    def write_manifest(self, tmp_path, payload):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        return path

    def test_load_assay_jobs_with_defaults_and_overrides(self, tmp_path):
        path = self.write_manifest(tmp_path, {
            "defaults": {"transport_time": 12},
            "jobs": [
                {"assay": "PCR"},
                {"assay": "IVD", "config": {"num_detectors": 3}},
            ],
        })
        jobs = load_manifest(path)
        assert [j.job_id for j in jobs] == ["PCR", "IVD"]
        assert all(j.config.transport_time == 12 for j in jobs)
        assert jobs[1].config.num_detectors == 3
        # Paper per-assay defaults still apply underneath the overrides.
        assert jobs[1].config.num_mixers == 2

    def test_top_level_list_shorthand(self, tmp_path):
        path = self.write_manifest(tmp_path, [{"assay": "PCR"}])
        assert len(load_manifest(path)) == 1

    def test_protocol_jobs_resolve_relative_to_manifest(self, tmp_path):
        save_graph(build_pcr(), tmp_path / "custom.json")
        path = self.write_manifest(tmp_path, {"jobs": [{"protocol": "custom.json"}]})
        jobs = load_manifest(path)
        assert jobs[0].job_id == "PCR"  # graph name from the protocol file
        assert len(jobs[0].graph) == 15

    def test_duplicate_auto_ids_get_suffixes(self, tmp_path):
        path = self.write_manifest(tmp_path, {
            "jobs": [{"assay": "PCR"}, {"assay": "PCR"}, {"assay": "PCR"}],
        })
        assert [j.job_id for j in load_manifest(path)] == ["PCR", "PCR#1", "PCR#2"]

    def test_duplicate_explicit_ids_rejected(self, tmp_path):
        path = self.write_manifest(tmp_path, {
            "jobs": [{"assay": "PCR", "id": "x"}, {"assay": "IVD", "id": "x"}],
        })
        with pytest.raises(ValueError, match="duplicate job id"):
            load_manifest(path)

    def test_job_needs_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            job_from_spec({})
        with pytest.raises(ValueError, match="exactly one"):
            job_from_spec({"assay": "PCR", "protocol": "x.json"})

    def test_unknown_assay_rejected(self):
        with pytest.raises(ValueError, match="unknown assay"):
            job_from_spec({"assay": "NOPE"})

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown flow-config keys"):
            job_from_spec({"assay": "PCR", "config": {"warp_factor": 9}})

    def test_unknown_job_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            job_from_spec({"assay": "PCR", "cofig": {"num_mixers": 3}})

    def test_unknown_top_level_key_rejected(self, tmp_path):
        # A typo like "default" must not silently drop every default.
        path = self.write_manifest(tmp_path, {
            "default": {"transport_time": 20},
            "jobs": [{"assay": "PCR"}],
        })
        with pytest.raises(ValueError, match="unknown top-level keys"):
            load_manifest(path)

    def test_missing_protocol_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            job_from_spec({"protocol": str(tmp_path / "missing.json")})


class TestSweep:
    def test_expand_sweep_grid_order_and_ids(self):
        jobs = expand_sweep({
            "assay": "PCR",
            "base": {"ilp_operation_limit": 0},
            "sweep": {"pitch": [5.0, 6.0], "storage_aware": [True, False]},
        })
        assert [j.job_id for j in jobs] == [
            "PCR/pitch=5,storage_aware=true",
            "PCR/pitch=5,storage_aware=false",
            "PCR/pitch=6,storage_aware=true",
            "PCR/pitch=6,storage_aware=false",
        ]
        assert all(j.config.ilp_operation_limit == 0 for j in jobs)
        assert jobs[0].config.pitch == 5.0 and jobs[3].config.pitch == 6.0
        # Paper per-assay defaults still apply underneath the grid.
        assert all(j.config.num_mixers == 2 for j in jobs)

    def test_expand_sweep_protocol_source(self, tmp_path):
        save_graph(build_pcr(), tmp_path / "custom.json")
        jobs = expand_sweep(
            {"protocol": "custom.json", "sweep": {"pitch": [5.0]}},
            base_dir=tmp_path,
        )
        assert jobs[0].job_id == "custom/pitch=5"
        assert len(jobs[0].graph) == 15

    def test_expand_sweep_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="unknown keys"):
            expand_sweep({"assay": "PCR", "sweep": {"pitch": [5]}, "grid": {}})
        with pytest.raises(ValueError, match="non-empty object"):
            expand_sweep({"assay": "PCR"})
        with pytest.raises(ValueError, match="non-empty object"):
            expand_sweep({"assay": "PCR", "sweep": {}})
        with pytest.raises(ValueError, match="unknown flow-config axes"):
            expand_sweep({"assay": "PCR", "sweep": {"warp_factor": [9]}})
        with pytest.raises(ValueError, match="non-empty list"):
            expand_sweep({"assay": "PCR", "sweep": {"pitch": []}})
        with pytest.raises(ValueError, match="both 'base' and 'sweep'"):
            expand_sweep({"assay": "PCR", "base": {"pitch": 5.0},
                          "sweep": {"pitch": [5.0]}})
        with pytest.raises(ValueError, match="exactly one"):
            expand_sweep({"sweep": {"pitch": [5.0]}})
        # Invalid values surface with the offending point's position.
        with pytest.raises(ValueError, match="job 1"):
            expand_sweep({"assay": "PCR", "sweep": {"num_mixers": [2, 0]}})
        # Axis values that render identically would produce duplicate ids.
        with pytest.raises(ValueError, match="duplicates job id"):
            expand_sweep({"assay": "PCR", "sweep": {"pitch": [5, 5.0]}})

    def test_sweep_cli_shares_upstream_stages(self, tmp_path, capsys):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "assay": "PCR",
            "base": {"ilp_operation_limit": 0},
            "sweep": {"pitch": [5.0, 6.0]},
        }))
        assert main(["sweep", str(spec)]) == 0
        output = capsys.readouterr().out
        # The second grid point reuses the schedule stage: one solve total.
        assert "stage schedule: 1 ran, 0 replayed, 1 shared" in output
        assert "stage archsyn: 1 ran, 0 replayed, 1 shared" in output
        assert "stage physical: 2 ran" in output

    def test_sweep_cli_warm_disk_cache_runs_nothing(self, tmp_path, capsys):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "assay": "PCR",
            "base": {"ilp_operation_limit": 0},
            "sweep": {"pitch": [5.0, 6.0]},
        }))
        cache_dir = tmp_path / "cache"
        assert main(["sweep", str(spec), "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["sweep", str(spec), "--cache-dir", str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert "stage schedule: 0 ran, 2 replayed, 0 shared" in output
        assert "2 served from cache" in output

    def test_sweep_cli_invalid_spec_errors(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"assay": "PCR", "sweep": {"warp": [1]}}))
        assert main(["sweep", str(spec)]) == 2
        assert "invalid sweep spec" in capsys.readouterr().err

    def test_sweep_cli_json_output_includes_stages(self, tmp_path, capsys):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "assay": "PCR",
            "base": {"ilp_operation_limit": 0},
            "sweep": {"pitch": [5.0, 6.0]},
        }))
        out = tmp_path / "report.json"
        assert main(["sweep", str(spec), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["stages"]["schedule"]["ran"] == 1
        assert payload["summary"]["stages"]["schedule"]["shared"] == 1
        second = payload["jobs"][1]
        assert [s["action"] for s in second["stages"]] == ["shared", "shared", "ran"]


class TestBatchCli:
    def write_manifest(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({
            "defaults": {"ilp_operation_limit": 0},
            "jobs": [{"assay": "PCR"}, {"assay": "IVD"}],
        }))
        return path

    def test_batch_subcommand_runs_manifest(self, tmp_path, capsys):
        manifest = self.write_manifest(tmp_path)
        exit_code = main(["batch", str(manifest)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "PCR" in output and "IVD" in output
        assert "2 jobs (0 failed)" in output

    def test_batch_json_output(self, tmp_path, capsys):
        manifest = self.write_manifest(tmp_path)
        out = tmp_path / "report.json"
        exit_code = main(["batch", str(manifest), "--json", str(out)])
        assert exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["jobs"] == 2
        assert payload["summary"]["failed"] == 0
        assert {j["id"] for j in payload["jobs"]} == {"PCR", "IVD"}
        assert all(j["metrics"]["tE"] > 0 for j in payload["jobs"])

    def test_batch_warm_disk_cache(self, tmp_path, capsys):
        manifest = self.write_manifest(tmp_path)
        cache_dir = tmp_path / "cache"
        assert main(["batch", str(manifest), "--workers", "2",
                     "--cache-dir", str(cache_dir)]) == 0
        cold = capsys.readouterr().out
        assert "0 served from cache" in cold and "on 2 worker(s)" in cold
        assert main(["batch", str(manifest), "--cache-dir", str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert "2 served from cache" in output

    def test_batch_failed_job_sets_exit_code(self, tmp_path, capsys):
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps({
            "jobs": [{"assay": "IVD", "config": {"num_detectors": 0,
                                                 "ilp_operation_limit": 0}}],
        }))
        assert main(["batch", str(manifest)]) == 1

    def test_batch_invalid_manifest_errors(self, tmp_path, capsys):
        manifest = tmp_path / "invalid.json"
        manifest.write_text("{\"jobs\": 7}")
        assert main(["batch", str(manifest)]) == 2
        assert "invalid manifest" in capsys.readouterr().err

    def test_batch_missing_manifest_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["batch", str(tmp_path / "none.json")])
