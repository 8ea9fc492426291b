"""End-to-end multi-replica tests: two real ``repro serve`` processes on the
``shared`` cache backend, arbitrated by an in-process cache daemon.

These are the cross-*process* counterparts of the in-process single-flight
tests: each replica is a genuine subprocess started through the CLI (the
same code path as production), driven over HTTP by :class:`ServiceClient`.
Jobs use ``ilp_operation_limit: 0`` so every solve is milliseconds.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.batch.cache import ResultCache
from repro.batch.cache_backends.shared import SharedCacheTier
from repro.service import (
    CacheDaemon,
    CacheDaemonConfig,
    ServiceClient,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def fast_sweep(pitches):
    """A solver-free PCR pitch sweep: only the physical stage varies."""
    return {
        "assay": "PCR",
        "base": {"ilp_operation_limit": 0},
        "sweep": {"pitch": list(pitches)},
    }


def stage_runs(result_payload, stage):
    """How many jobs in a result payload actually *ran* ``stage``."""
    runs = 0
    for job in result_payload.get("jobs", []):
        for row in job.get("stages", []):
            if row["stage"] == stage and row["action"] == "ran":
                runs += 1
    return runs


@contextlib.contextmanager
def running_daemon(**config_kwargs):
    """An in-process cache daemon on an ephemeral port."""
    daemon = CacheDaemon(CacheDaemonConfig(port=0, **config_kwargs))
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.serve_forever()), daemon=True
    )
    thread.start()
    assert daemon.ready.wait(timeout=10.0), "daemon did not become ready"
    try:
        yield daemon
    finally:
        daemon.request_shutdown_threadsafe()
        thread.join(timeout=10.0)


class ReplicaProcess:
    """One ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, cache_addr: str):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "2",
                "--cache-backend", "shared", "--cache-addr", cache_addr,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_subprocess_env(),
        )
        self.port = self._announced_port()
        self.client = ServiceClient(port=self.port)

    def _announced_port(self) -> int:
        deadline = time.time() + 30.0
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.proc.kill()
        raise RuntimeError("replica did not announce its port in time")

    def stop(self) -> None:
        if self.proc.poll() is None:
            with contextlib.suppress(Exception):
                self.client.shutdown()
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5.0)


@pytest.fixture()
def daemon():
    with running_daemon() as instance:
        yield instance


@pytest.fixture()
def daemon_addr(daemon):
    return f"127.0.0.1:{daemon.bound_port}"


class TestTwoReplicaExactlyOnce:
    def test_overlapping_sweeps_schedule_exactly_once_between_replicas(
        self, daemon_addr
    ):
        """The acceptance pin: two replicas, two overlapping pitch sweeps,
        one scheduling solve in total — the pitch axis never touches the
        schedule stage, so cross-process single-flight must hand the one
        solve from whichever replica claims it to the other."""
        replicas = [ReplicaProcess(daemon_addr) for _ in range(2)]
        try:
            sweeps = [fast_sweep([5.0, 6.0, 7.0]), fast_sweep([6.0, 7.0, 8.0])]
            job_ids = [
                replica.client.submit(sweep)
                for replica, sweep in zip(replicas, sweeps)
            ]
            statuses = [
                replica.client.wait(job_id, timeout=60.0)
                for replica, job_id in zip(replicas, job_ids)
            ]
            assert all(status["status"] == "done" for status in statuses)
            results = [
                replica.client.result(job_id)
                for replica, job_id in zip(replicas, job_ids)
            ]
            assert all(len(result["jobs"]) == 3 for result in results)
            assert all(
                job["error"] is None for result in results for job in result["jobs"]
            )
            # Exactly once across both *processes*, not once per process.
            assert sum(stage_runs(result, "schedule") for result in results) == 1
            assert sum(stage_runs(result, "archsyn") for result in results) == 1
            # Four distinct pitches overall: four physical solves between
            # the replicas (the two overlapping pitches are shared too).
            assert sum(stage_runs(result, "physical") for result in results) == 4
            # The summary's cache block records the cross-replica traffic.
            shared_hits = sum(
                result["summary"]["cache"]["shared_hits"] for result in results
            )
            assert shared_hits >= 1
        finally:
            for replica in replicas:
                replica.stop()

    def test_replica_restart_replays_warm_from_the_shared_store(
        self, daemon, daemon_addr
    ):
        """A replica that restarts (new process, empty memory) replays the
        whole sweep from the daemon: zero stages run, and both the replica's
        ``/stats`` and the daemon's counters show the replay as hits."""
        first = ReplicaProcess(daemon_addr)
        try:
            job_id = first.client.submit(fast_sweep([5.0, 6.0]))
            assert first.client.wait(job_id, timeout=60.0)["status"] == "done"
        finally:
            first.stop()
        second = ReplicaProcess(daemon_addr)
        try:
            job_id = second.client.submit(fast_sweep([5.0, 6.0]))
            assert second.client.wait(job_id, timeout=60.0)["status"] == "done"
            result = second.client.result(job_id)
            for stage in ("schedule", "archsyn", "physical"):
                assert stage_runs(result, stage) == 0, stage
            with urllib.request.urlopen(
                f"http://127.0.0.1:{second.port}/stats", timeout=10.0
            ) as response:
                stats = json.loads(response.read().decode("utf-8"))
            assert stats["cache"]["shared_hits"] >= 1, stats["cache"]
        finally:
            second.stop()
        assert daemon.stats.hits > 0


class TestKilledClaimantTakeover:
    def test_killed_process_is_taken_over_after_lease_expiry(self, daemon_addr):
        """A process SIGKILLed while holding a claim never releases it; the
        survivor must inherit the claim once the lease runs out."""
        key = "f" * 64
        claimer = subprocess.Popen(
            [
                sys.executable, "-c",
                textwrap.dedent(
                    f"""
                    import time
                    from repro.batch.cache_backends.shared import SharedCacheTier
                    tier = SharedCacheTier("{daemon_addr}")
                    outcome = tier.claim("{key}", lease_s=1.0)
                    print(outcome.state, flush=True)
                    time.sleep(60)
                    """
                ),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
        )
        try:
            assert claimer.stdout.readline().strip() == "granted"
            claimer.send_signal(signal.SIGKILL)
            claimer.wait(timeout=10.0)
            survivor = ResultCache(backend="shared", cache_addr=daemon_addr)
            start = time.monotonic()
            # The miss blocks on the dead owner's claim, then inherits it.
            assert survivor.get(key) is None
            waited = time.monotonic() - start
            assert waited >= 0.5, waited
            assert survivor.stats.takeovers == 1
            # The takeover grant is exclusive again: a third party is denied.
            assert SharedCacheTier(daemon_addr).claim(key).state == "claimed"
        finally:
            if claimer.poll() is None:
                claimer.kill()


class TestStatsEndpoint:
    def test_stats_reports_backend_tiers_and_cache_counters(self, daemon_addr):
        replica = ReplicaProcess(daemon_addr)
        try:
            job_id = replica.client.submit(fast_sweep([5.0, 6.0]))
            assert replica.client.wait(job_id, timeout=60.0)["status"] == "done"
            with urllib.request.urlopen(
                f"http://127.0.0.1:{replica.port}/stats", timeout=10.0
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["backend"] == "shared"
            assert payload["cache_addr"] == daemon_addr
            assert [tier["kind"] for tier in payload["tiers"]] == ["shared"]
            assert payload["tiers"][0]["writes"] > 0
            assert payload["cache"]["lookups"] > 0
            assert payload["cache"]["claims"] > 0
            assert payload["jobs"]["done"] == 1
        finally:
            replica.stop()

    def test_daemon_stats_count_cross_replica_traffic(self, daemon, daemon_addr):
        replica = ReplicaProcess(daemon_addr)
        try:
            job_id = replica.client.submit(fast_sweep([5.0]))
            assert replica.client.wait(job_id, timeout=60.0)["status"] == "done"
        finally:
            replica.stop()
        assert daemon.stats.puts > 0
        assert daemon.stats.claims_granted > 0
