"""Tests of the long-running synthesis service (``repro.service``).

The end-to-end tests run a real :class:`SynthesisService` on an ephemeral
loopback port inside a background thread and talk to it through the
blocking :class:`ServiceClient` — the same wire path as production, minus
the subprocess.  Synthesis jobs use ``ilp_operation_limit: 0`` so every
solve takes milliseconds through the list scheduler.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.batch.cache import ResultCache
from repro.batch.engine import BatchSynthesisEngine
from repro.batch.jobs import manifest_jobs
from repro.keys import derive_job_id
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SynthesisService,
)
from repro.service.http import HttpError, Request
from repro.service.state import JobRegistry

FAST_PCR = {"jobs": [{"assay": "PCR", "config": {"ilp_operation_limit": 0}}]}


def fast_sweep(pitches):
    return {
        "assay": "PCR",
        "base": {"ilp_operation_limit": 0},
        "sweep": {"pitch": list(pitches)},
    }


# --------------------------------------------------------------------- helpers


class ServiceUnderTest:
    """A service running in a daemon thread, stopped via the HTTP endpoint."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        config_kwargs.setdefault("claim_timeout_s", 30.0)
        self.service = SynthesisService(ServiceConfig(**config_kwargs))
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.service.serve_forever()), daemon=True
        )

    def __enter__(self) -> "ServiceUnderTest":
        self.thread.start()
        assert self.service.ready.wait(10), "service did not come up"
        self.client = ServiceClient(port=self.service.bound_port)
        return self

    def __exit__(self, *_exc) -> None:
        if self.thread.is_alive():
            self.service.request_shutdown_threadsafe()
            self.thread.join(20)
        assert not self.thread.is_alive(), "service did not shut down"


# ----------------------------------------------------------------- unit layers


class TestDeriveJobId:
    def test_identical_payloads_share_the_digest_prefix(self):
        a = derive_job_id({"jobs": [1]}, 1)
        b = derive_job_id({"jobs": [1]}, 2)
        assert a != b
        assert a.rsplit("-", 1)[0] == b.rsplit("-", 1)[0]

    def test_different_payloads_differ_in_the_digest(self):
        a = derive_job_id({"jobs": [1]}, 1)
        b = derive_job_id({"jobs": [2]}, 1)
        assert a.rsplit("-", 1)[0] != b.rsplit("-", 1)[0]


class TestRequestJson:
    def test_valid_body_parses(self):
        request = Request(method="POST", path="/jobs", body=b'{"a": 1}')
        assert request.json() == {"a": 1}

    def test_invalid_body_raises_400(self):
        request = Request(method="POST", path="/jobs", body=b"{nope")
        with pytest.raises(HttpError) as err:
            request.json()
        assert err.value.status == 400


class TestJobRegistry:
    def test_lifecycle_and_counts(self):
        registry = JobRegistry()
        record = registry.create("batch", {"jobs": []}, jobs=[])
        assert registry.get(record.job_id) is record
        assert registry.counts()["queued"] == 1
        record.mark_running()
        assert registry.counts()["running"] == 1
        record.mark_failed("boom")
        assert record.finished
        payload = record.status_payload()
        assert payload["status"] == "failed"
        assert payload["error"] == "boom"

    def test_unknown_id_is_none(self):
        assert JobRegistry().get("job-nope-1") is None


class TestSingleFlight:
    def test_miss_claims_and_put_releases_to_waiters(self):
        cache = ResultCache(claim_timeout_s=30.0)
        assert cache.get("k") is None  # this thread now holds the claim
        seen = []

        def waiter():
            seen.append(cache.get("k"))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)  # the waiter is blocked on the claim
        assert not seen
        cache.put("k", "value")
        thread.join(5)
        assert seen == ["value"]

    def test_abandon_wakes_waiter_who_then_claims(self):
        cache = ResultCache(claim_timeout_s=30.0)
        assert cache.get("k") is None
        results = []

        def waiter():
            results.append(cache.get("k"))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        cache.abandon("k")
        thread.join(5)
        # The waiter got the claim (a None return), not a value.
        assert results == [None]
        # And abandoning again (already released) is a harmless no-op.
        cache.abandon("k")

    def test_claim_timeout_hands_the_claim_over(self):
        cache = ResultCache(claim_timeout_s=0.1)
        assert cache.get("k") is None  # claim never released: claimant "died"
        start = time.monotonic()
        assert cache.get("k") is None  # waiter takes over after the timeout
        assert time.monotonic() - start >= 0.1

    def test_takeover_is_single_not_a_thundering_herd(self):
        """After a claim times out, exactly one waiter takes over; the rest
        re-time the replacement claim instead of stealing it instantly."""
        cache = ResultCache(claim_timeout_s=0.3)
        assert cache.get("k") is None  # claimant that will never release
        results = []

        def waiter():
            results.append(cache.get("k"))

        threads = [threading.Thread(target=waiter) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.45)  # past the first timeout, well before a second one
        assert results == [None], "exactly one waiter must take the claim over"
        cache.put("k", "v")  # the takeover claimant publishes
        for thread in threads:
            thread.join(5)
        assert sorted(results, key=str) == [None, "v"]

    def test_failed_stage_releases_its_claim(self):
        from repro.batch.engine import BatchSynthesisEngine
        from repro.batch.jobs import BatchJob
        from repro.graph.library import assay_by_name
        from repro.synthesis.config import FlowConfig

        cache = ResultCache(claim_timeout_s=30.0)
        engine = BatchSynthesisEngine(cache=cache)
        bad = BatchJob(
            "bad-ivd",
            assay_by_name("IVD"),
            FlowConfig(num_mixers=2, num_detectors=0, ilp_operation_limit=0),
        )
        with pytest.raises(RuntimeError, match="no device can execute"):
            engine.run_one(bad)
        assert cache._inflight == {}, "a failed stage must release its claim"
        report = engine.run([bad])
        assert report.num_failed == 1
        assert cache._inflight == {}

    def test_get_memory_never_claims_or_blocks(self):
        cache = ResultCache(claim_timeout_s=30.0)
        assert cache.get("k") is None  # a foreign claim is now outstanding
        start = time.monotonic()
        assert cache.get_memory("k") is None  # returns immediately
        assert time.monotonic() - start < 1.0
        cache.put("k", "v")
        assert cache.get_memory("k") == "v"

    def test_failure_memo_and_len(self):
        cache = ResultCache()
        error = ValueError("x")
        cache.put_failure("k", error)
        assert cache.get_failure("k") is error
        cache.put("k2", 1)
        assert len(cache) == 1
        assert cache.contains("k2")


class TestFlushToDisk:
    def test_rewrites_soft_failed_disk_entries(self, tmp_path, monkeypatch):
        """Entries whose live write soft-failed stay dirty and get flushed."""
        import pathlib

        cache = ResultCache(cache_dir=tmp_path)
        tier = cache.tiers[0]

        # Simulate a full disk during the live writes: both puts soft-fail,
        # so both keys stay dirty in the disk tier.
        real_write = pathlib.Path.write_bytes

        def failing_write(self, data):
            raise OSError("no space left on device")

        monkeypatch.setattr(pathlib.Path, "write_bytes", failing_write)
        cache.put("a" * 64, {"payload": 1})
        cache.put("b" * 64, {"payload": 2})
        assert not list(tmp_path.glob("*.pkl"))
        assert tier.writes == 0

        # Disk recovered: the shutdown flush republishes the dirty entries.
        monkeypatch.setattr(pathlib.Path, "write_bytes", real_write)
        assert cache.flush_to_disk() == 2
        assert sorted(p.stem for p in tmp_path.glob("*.pkl")) == ["a" * 64, "b" * 64]
        # Already-persisted entries are not rewritten: the write counter is
        # the regression pin for the historical flush double-write.
        assert tier.writes == 2
        assert cache.flush_to_disk() == 0
        assert tier.writes == 2

    def test_memory_only_entries_are_skipped(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("c" * 64, {"view": True}, disk=False)
        assert cache.flush_to_disk() == 0
        assert not list(tmp_path.glob("*.pkl"))

    def test_without_disk_tier_flush_is_zero(self):
        cache = ResultCache()
        cache.put("d" * 64, 1)
        assert cache.flush_to_disk() == 0


# ------------------------------------------------------------------ end to end


class TestServiceEndToEnd:
    def test_submit_poll_result_and_replay(self):
        with ServiceUnderTest(workers=2) as running:
            client = running.client

            health = client.healthz()
            assert health["status"] == "ok"
            assert health["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}

            job_id = client.submit(FAST_PCR)
            status = client.wait(job_id, timeout=60)
            assert status["status"] == "done"
            stages = status["summary"]["stages"]
            assert stages["schedule"]["ran"] == 1
            assert stages["archsyn"]["ran"] == 1
            assert stages["physical"]["ran"] == 1

            result = client.result(job_id)
            assert result["job_id"] == job_id
            assert [row["id"] for row in result["jobs"]] == ["PCR"]
            assert result["jobs"][0]["metrics"]["tE"] > 0

            # An identical resubmission is served from the hot cache: a new
            # job id (same digest prefix), zero stages executed.
            second = client.submit(FAST_PCR)
            assert second != job_id
            assert second.rsplit("-", 1)[0] == job_id.rsplit("-", 1)[0]
            status2 = client.wait(second, timeout=60)
            assert status2["status"] == "done"
            assert status2["summary"]["cache_hits"] == 1
            assert status2["summary"]["stages"] == {}

            jobs = client.jobs()["jobs"]
            assert [j["job_id"] for j in jobs] == [job_id, second]

    def test_sweep_submission_shares_stages_within_the_job(self):
        with ServiceUnderTest(workers=1) as running:
            job_id = running.client.submit(fast_sweep([5.0, 6.0, 7.0]))
            status = running.client.wait(job_id, timeout=60)
            assert status["kind"] == "sweep"
            stages = status["summary"]["stages"]
            assert stages["schedule"] == {
                "ran": 1, "replayed": 0, "shared": 2,
                "wall_time_s": stages["schedule"]["wall_time_s"],
                # Solver-free sweep: the list scheduler reports no backend
                # and consumes no warm start.
                "backends": {}, "warm_starts": 0,
            }
            assert stages["physical"]["ran"] == 3

    def test_server_side_solver_override_rewrites_job_configs(self):
        """``repro serve --solver``: every submitted job's backends are
        forced server-side, after validation, before execution."""
        with ServiceUnderTest(workers=1, solver="branch-and-bound") as running:
            job_id = running.client.submit(FAST_PCR)
            status = running.client.wait(job_id, timeout=60)
            assert status["status"] == "done"
            record = running.service.registry.get(job_id)
            config = record.jobs[0].config
            assert config.scheduler_backend == "branch-and-bound"
            assert config.archsyn_backend == "branch-and-bound"

    def test_concurrent_sweeps_share_inflight_stages(self, stage_runs):
        """The acceptance criterion: two concurrent sweeps differing only in
        physical knobs perform exactly one scheduling solve and one
        architecture synthesis between them."""
        with ServiceUnderTest(workers=2) as running:
            client = running.client
            job_ids = []

            def submit(spec):
                job_ids.append(client.submit(spec))

            threads = [
                threading.Thread(target=submit, args=(fast_sweep([5.0, 6.0]),)),
                threading.Thread(target=submit, args=(fast_sweep([7.0, 8.0]),)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            for job_id in job_ids:
                assert client.wait(job_id, timeout=120)["status"] == "done"

            assert stage_runs["schedule"] == 1
            assert stage_runs["archsyn"] == 1
            assert stage_runs["physical"] == 4

    def test_overlapping_manifests_in_opposite_order_do_not_deadlock(self):
        """Regression: concurrent jobs visiting shared keys in different
        submission orders must not hold-and-wait on each other's claims —
        the engine acquires per-tier claims in sorted key order and never
        blocks on run-level keys."""
        # A long claim timeout turns any ordering deadlock into a test
        # failure (the wait below would expire) instead of a silent retry.
        with ServiceUnderTest(workers=2, claim_timeout_s=300.0) as running:
            client = running.client
            forward = {"jobs": [
                {"assay": "PCR", "config": {"ilp_operation_limit": 0}},
                {"assay": "IVD", "config": {"ilp_operation_limit": 0}},
            ]}
            backward = {"jobs": list(reversed(forward["jobs"]))}
            job_ids = []

            def submit(spec):
                job_ids.append(client.submit(spec))

            threads = [
                threading.Thread(target=submit, args=(spec,))
                for spec in (forward, backward)
            ]
            start = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            for job_id in job_ids:
                assert client.wait(job_id, timeout=60)["status"] == "done"
            assert time.monotonic() - start < 30, "jobs stalled on each other"

    def test_protocol_file_jobs_are_rejected_over_http(self, tmp_path):
        secret = tmp_path / "secret.json"
        secret.write_text("{}")
        with ServiceUnderTest(workers=1) as running:
            for payload in (
                {"jobs": [{"protocol": str(secret)}]},
                [{"protocol": str(secret)}],
                {"protocol": str(secret), "sweep": {"pitch": [5.0]}},
            ):
                with pytest.raises(ServiceError) as err:
                    running.client.submit(payload)
                assert err.value.status == 400
                assert "not accepted over HTTP" in str(err.value)

    def test_oversized_sweep_is_rejected_before_expansion(self):
        with ServiceUnderTest(workers=1) as running:
            huge = {
                "assay": "PCR",
                "sweep": {
                    "pitch": [float(i) for i in range(300)],
                    "min_channel_spacing": [float(i) for i in range(300)],
                    "transport_time": list(range(100)),
                },
            }
            start = time.monotonic()
            with pytest.raises(ServiceError) as err:
                running.client.submit(huge)
            # Rejected structurally: a 9-million-point grid must not be
            # expanded (that would take minutes and stall the event loop).
            assert time.monotonic() - start < 5.0
            assert err.value.status == 400
            assert "over this server's limit" in str(err.value)

    def test_shutdown_leaves_no_job_in_a_live_state(self):
        """Queued backlog is refused at shutdown, running work is marked
        failed if the drain window expires — nothing stays queued/running."""
        running = ServiceUnderTest(workers=1, drain_timeout_s=2.0)
        with running:
            for _ in range(3):
                running.client.submit(fast_sweep([5.0, 6.0, 7.0, 8.0]))
            running.client.shutdown()
            running.thread.join(30)
        statuses = [r.status for r in running.service.registry.records()]
        assert all(status in ("done", "failed") for status in statuses), statuses

    def test_error_responses(self):
        with ServiceUnderTest(workers=1) as running:
            client = running.client
            with pytest.raises(ServiceError) as err:
                client.status("job-missing-1")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.submit({"jobs": [{"assay": "NOPE"}]})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.submit({"jobs": "not-a-list"})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/definitely/not/there")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client._request("PUT", "/jobs")
            assert err.value.status == 405
            # A failed-synthesis job is DONE with the failure in its report.
            job_id = client.submit(
                {"jobs": [{"assay": "IVD",
                           "config": {"ilp_operation_limit": 0, "num_detectors": 0}}]}
            )
            status = client.wait(job_id, timeout=60)
            assert status["status"] == "done"
            assert status["summary"]["failed"] == 1
            result = client.result(job_id)
            assert result["jobs"][0]["error"]

    def test_result_of_unfinished_job_conflicts(self):
        with ServiceUnderTest(workers=1) as running:
            # Queue two jobs on one worker: the second is pending while the
            # first runs, so its result endpoint must answer 409.
            first = running.client.submit(fast_sweep([5.0, 6.0, 7.0, 8.0]))
            second = running.client.submit(FAST_PCR)
            try:
                running.client.result(second)
            except ServiceError as err:
                assert err.status == 409
            else:
                # Too fast to catch in flight — the job legitimately finished.
                pass
            assert running.client.wait(first, timeout=60)["status"] == "done"
            assert running.client.wait(second, timeout=60)["status"] == "done"

    def test_shutdown_flushes_and_restart_replays_all_stages(self, tmp_path):
        cache_dir = tmp_path / "service-cache"
        with ServiceUnderTest(workers=1, cache_dir=cache_dir) as running:
            job_id = running.client.submit(FAST_PCR)
            assert running.client.wait(job_id, timeout=60)["status"] == "done"
            running.client.shutdown()
            running.thread.join(20)
        assert running.service.flushed_on_shutdown is not None
        assert list(cache_dir.glob("*.pkl")), "stage artifacts must persist"

        # A fresh server on the same cache_dir replays every stage from disk.
        with ServiceUnderTest(workers=1, cache_dir=cache_dir) as restarted:
            job_id = restarted.client.submit(FAST_PCR)
            status = restarted.client.wait(job_id, timeout=60)
            assert status["status"] == "done"
            stages = status["summary"]["stages"]
            for name in ("schedule", "archsyn", "physical"):
                assert stages[name]["ran"] == 0
                assert stages[name]["replayed"] == 1

    def test_result_metrics_equal_the_engine_payload(self, tmp_path):
        # The engine fills a disk cache first; the service replays every
        # stage from it, so even the stage timings inside the metrics match.
        manifest = {
            "defaults": {"ilp_operation_limit": 0},
            "jobs": [{"assay": "PCR"}, {"assay": "CPA"}],
        }
        cache_dir = tmp_path / "cache"
        engine = BatchSynthesisEngine(cache=ResultCache(cache_dir=cache_dir))
        expected = engine.run(manifest_jobs(manifest)).to_json_payload()
        with ServiceUnderTest(workers=1, cache_dir=cache_dir) as running:
            job_id = running.client.submit(manifest)
            assert running.client.wait(job_id, timeout=60)["status"] == "done"
            result = running.client.result(job_id)
        assert [row["metrics"] for row in result["jobs"]] == [
            row["metrics"] for row in expected["jobs"]
        ]

    def test_submit_after_shutdown_is_rejected(self):
        running = ServiceUnderTest(workers=1)
        with running:
            running.client.shutdown()
            running.thread.join(20)
            with pytest.raises((ServiceError, OSError)):
                running.client.submit(FAST_PCR)


# ------------------------------------------------------------- explorations


FAST_EXPLORE = {
    "name": "service-explore",
    "workloads": [
        {"assay": "PCR"},
        {"generator": "random_assay", "num_operations": 8, "seed": 2, "id": "ra8"},
    ],
    "axes": {"num_mixers": [2, 3], "pitch": [5.0, 6.0]},
    "base": {"ilp_operation_limit": 0},
    "objectives": ["makespan", "storage_cells", "device_count"],
    "strategy": "exhaustive",
}


class TestExploreSubmissions:
    def test_exploration_end_to_end(self):
        with ServiceUnderTest(workers=1) as running:
            job_id = running.client.submit(FAST_EXPLORE)
            status = running.client.wait(job_id, timeout=120)
            assert status["status"] == "done"
            assert status["kind"] == "explore"
            assert status["jobs"] == 8  # the candidate space
            summary = status["summary"]
            assert summary["kind"] == "exploration"
            assert summary["evaluated"] == 8
            assert summary["frontier_size"] >= 2
            # The pitch axis never touches the schedule slice: stage
            # sharing must keep solves strictly below evaluated configs.
            assert summary["scheduling_solves"] < summary["evaluated"]

            result = running.client.result(job_id)
            assert result["job_id"] == job_id
            assert result["spec"]["name"] == "service-explore"
            assert len(result["frontier"]) == summary["frontier_size"]
            for entry in result["frontier"]:
                assert set(entry["objectives"]) == {
                    "makespan", "storage_cells", "device_count",
                }

    def test_repeat_exploration_replays_from_the_hot_cache(self):
        with ServiceUnderTest(workers=1) as running:
            first = running.client.submit(FAST_EXPLORE)
            assert running.client.wait(first, timeout=120)["status"] == "done"
            second = running.client.submit(FAST_EXPLORE)
            status = running.client.wait(second, timeout=120)
            assert status["status"] == "done"
            # Same server, same spec: every stage artifact is already in
            # the shared cache, so the rerun performs zero solves.
            assert status["summary"]["scheduling_solves"] == 0

    def test_exploration_shares_stages_with_manifest_jobs(self):
        with ServiceUnderTest(workers=1) as running:
            manifest_job = running.client.submit(FAST_PCR)
            assert running.client.wait(manifest_job, timeout=120)["status"] == "done"
            explore = dict(FAST_EXPLORE, axes={"num_mixers": [2]}, workloads=[
                {"assay": "PCR"},
            ])
            job_id = running.client.submit(explore)
            status = running.client.wait(job_id, timeout=120)
            assert status["status"] == "done"
            # PCR/num_mixers=2 under the same base config is exactly the
            # manifest job: the exploration replays all three stages.
            assert status["summary"]["scheduling_solves"] == 0

    def test_malformed_exploration_body_is_rejected(self):
        with ServiceUnderTest(workers=1) as running:
            with pytest.raises(ServiceError) as err:
                running.client.submit({"workloads": [{"assay": "PCR"}],
                                       "axes": {"pitchh": [1.0]}})
            assert err.value.status == 400
            assert "unknown flow-config axes" in str(err.value)

    def test_oversized_generator_jobs_are_rejected_structurally(self):
        # Generator graphs build synchronously at submit time and count as
        # one job, so their size must be gated like the job count — a huge
        # num_operations must answer 400 instantly, not stall the loop.
        with ServiceUnderTest(workers=1) as running:
            for payload in (
                {"jobs": [{"generator": "random_assay", "num_operations": 200000}]},
                [{"generator": "random_assay", "num_operations": 200000}],
                {"workloads": [{"generator": "random_assay",
                                "num_operations": 200000}]},
                # A small graph over a huge input pool costs a
                # million-entry shuffle per operation: every size
                # parameter is gated, not just num_operations.
                {"jobs": [{"generator": "random_assay", "num_operations": 5,
                           "num_inputs": 1000000}]},
                # Many at-the-limit entries compose with the job-count gate
                # into minutes of generation: the aggregate is gated too.
                {"jobs": [{"generator": "random_assay", "num_operations": 2000,
                           "seed": i, "id": f"g{i}"} for i in range(20)]},
            ):
                start = time.monotonic()
                with pytest.raises(ServiceError) as err:
                    running.client.submit(payload)
                assert time.monotonic() - start < 5.0
                assert err.value.status == 400
                assert "over this server's limit" in str(err.value)

    def test_bad_axis_value_is_rejected_at_submit_time(self):
        with ServiceUnderTest(workers=1) as running:
            with pytest.raises(ServiceError) as err:
                running.client.submit({"workloads": [{"assay": "PCR"}],
                                       "axes": {"num_mixers": ["three"]}})
            assert err.value.status == 400
            assert "expects int" in str(err.value)

    def test_unknown_workload_is_rejected_at_submit_time(self):
        # Parity with manifest bodies: a typo'd assay answers 400 now, not
        # an asynchronous 'failed' status discovered by polling.
        with ServiceUnderTest(workers=1) as running:
            with pytest.raises(ServiceError) as err:
                running.client.submit({"workloads": [{"assay": "NOPE"}]})
            assert err.value.status == 400
            assert "unknown assay" in str(err.value)

    def test_protocol_workloads_are_rejected_over_http(self, tmp_path):
        secret = tmp_path / "secret.json"
        secret.write_text("{}")
        with ServiceUnderTest(workers=1) as running:
            with pytest.raises(ServiceError) as err:
                running.client.submit(
                    {"workloads": [{"protocol": str(secret)}]}
                )
            assert err.value.status == 400
            assert "not accepted over HTTP" in str(err.value)

    def test_oversized_candidate_space_is_rejected_structurally(self):
        with ServiceUnderTest(workers=1) as running:
            huge = {
                "workloads": [{"assay": "PCR"}],
                "axes": {
                    "pitch": [float(i) for i in range(300)],
                    "min_channel_spacing": [float(i) for i in range(300)],
                    "transport_time": list(range(100)),
                },
                "budget": 4,  # a small budget must not bypass the gate
            }
            start = time.monotonic()
            with pytest.raises(ServiceError) as err:
                running.client.submit(huge)
            assert time.monotonic() - start < 5.0
            assert err.value.status == 400
            assert "over this server's limit" in str(err.value)
