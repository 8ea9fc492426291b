"""Cross-process trace propagation tests.

The in-process tracing contracts live in ``test_obs.py``; this file covers
the three places a span context crosses a process (or protocol) boundary:

* **claim waits** — a replica blocking on another replica's solve opens a
  ``cache:claim-wait`` span whose ``claimant`` attribute is the claimant's
  serialized span context, echoed back by the cache daemon;
* **service submissions** — a traced ``ServiceClient`` ships its context in
  the trace header, the server records the job under a child recorder, and
  the result payload carries the remote spans back for absorption;
* **Monte-Carlo shards** — ``repro simulate --workers N --trace-out`` runs
  shards in a process pool, and the exported Chrome trace must show every
  ``verify:shard`` span nested under the coordinator's ``verify:mc`` span.

Real daemon, real HTTP, real subprocesses — no monkeypatching — because
the point is that the wire forms survive the actual transports.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import threading
import time

import pytest

from repro.batch.cache import ResultCache
from repro.obs import (
    SpanContext,
    TraceRecorder,
    current_context,
    install_recorder,
    span,
)
from repro.obs.trace import uninstall_recorder, validate_chrome_trace

from test_mc_differential import _trials_for_shards
from test_multi_replica import (
    SRC_DIR,
    ReplicaProcess,
    _subprocess_env,
    fast_sweep,
    running_daemon,
)


@pytest.fixture()
def daemon_addr():
    """A live in-process cache daemon, as ``host:port``."""
    with running_daemon() as daemon:
        yield f"127.0.0.1:{daemon.bound_port}"


def shared_cache(daemon_addr, **kwargs):
    """One replica's single-flight cache on the shared backend."""
    return ResultCache(backend="shared", cache_addr=daemon_addr, **kwargs)


class TestClaimWaitLinking:
    def test_waiter_span_links_to_the_claimant_trace(self, daemon_addr):
        """Replica A claims a key mid-span; replica B, tracing its own
        trace, blocks on the claim — B's ``cache:claim-wait`` span must
        carry A's span context, deserializable back to A's trace."""
        key = "stage-deadbeefdeadbeef"
        value = {"makespan": 650}
        cache_a = shared_cache(daemon_addr, claim_timeout_s=30.0)
        cache_b = shared_cache(daemon_addr, claim_timeout_s=30.0)
        rec_a = TraceRecorder()
        rec_b = TraceRecorder()
        claim_held = threading.Event()
        side_a = {}

        def claimant():
            # Threads start with fresh contextvars: install explicitly.
            token = install_recorder(rec_a)
            try:
                with span("solve", category="stage"):
                    side_a["claim"] = cache_a.get(key)
                    side_a["context"] = current_context()
                    claim_held.set()
                    time.sleep(0.3)  # long enough for B to poll "claimed"
                    cache_a.put(key, value)
            finally:
                uninstall_recorder(token)

        thread = threading.Thread(target=claimant)
        thread.start()
        try:
            assert claim_held.wait(timeout=10.0)
            token = install_recorder(rec_b)
            try:
                received = cache_b.get(key)
            finally:
                uninstall_recorder(token)
        finally:
            thread.join(timeout=10.0)

        assert side_a["claim"] is None  # A held the cross-process claim
        assert received == value  # B replayed A's publish, did not compute

        (wait_span,) = [s for s in rec_b.spans() if s.name == "cache:claim-wait"]
        assert wait_span.category == "cache"
        assert wait_span.attributes["key"] == key[:16]
        claimant_ctx = SpanContext.deserialize(wait_span.attributes["claimant"])
        assert claimant_ctx == side_a["context"]
        assert claimant_ctx.trace_id == rec_a.trace_id
        assert claimant_ctx.trace_id != rec_b.trace_id  # a genuine cross-link
        (solve_span,) = [s for s in rec_a.spans() if s.name == "solve"]
        assert claimant_ctx.span_id == solve_span.span_id

    def test_untraced_waiter_still_waits_without_a_claimant_link(
        self, daemon_addr
    ):
        """Tracing off on both sides: the protocol must degrade to plain
        waiting — no recorder, no claimant attribute, same exactly-once."""
        key = "stage-feedfacefeedface"
        cache_a = shared_cache(daemon_addr, claim_timeout_s=30.0)
        cache_b = shared_cache(daemon_addr, claim_timeout_s=30.0)
        claim_held = threading.Event()

        def claimant():
            assert cache_a.get(key) is None
            claim_held.set()
            time.sleep(0.2)
            cache_a.put(key, {"ok": True})

        thread = threading.Thread(target=claimant)
        thread.start()
        try:
            assert claim_held.wait(timeout=10.0)
            assert cache_b.get(key) == {"ok": True}
        finally:
            thread.join(timeout=10.0)


class TestServiceSubmissionPropagation:
    def test_remote_job_spans_absorb_into_the_submitting_trace(
        self, daemon_addr
    ):
        """Submit to a real ``repro serve`` subprocess while tracing: the
        job must run under a child of the submission span, and fetching the
        result must absorb the replica's spans into the local recorder."""
        replica = ReplicaProcess(daemon_addr)
        try:
            rec = TraceRecorder()
            token = install_recorder(rec)
            try:
                with span("submit-sweep", category="job") as submit:
                    job_id = replica.client.submit(fast_sweep([5.0]))
                    status = replica.client.wait(job_id, timeout=60.0)
                    assert status["status"] == "done"
                    result = replica.client.result(job_id)
            finally:
                uninstall_recorder(token)
        finally:
            replica.stop()

        # The replica recorded under the submitting trace and said so.
        assert result["trace"]["trace_id"] == rec.trace_id
        summary_stages = {row["name"] for row in result["trace"]["spans"]}
        assert "stage:schedule" in summary_stages

        spans = {s.name: s for s in rec.spans()}
        job_span = spans[f"job:{job_id}"]
        assert job_span.trace_id == rec.trace_id
        assert job_span.parent_id == submit.span_id
        assert "stage:schedule" in spans
        assert spans["stage:schedule"].trace_id == rec.trace_id
        # The absorbed remote spans export as one coherent Chrome trace.
        assert validate_chrome_trace(rec.chrome_trace()) == []


class TestShardedSimulateExport:
    def test_trace_out_nests_shard_spans_under_the_verify_span(
        self, pcr_schedule, tmp_path
    ):
        """``repro simulate --workers 4 --trace-out``: the process-pool
        shards each record in a child recorder that is shipped back and
        absorbed, so the exported trace shows ``verify:shard`` spans
        parented on the coordinator's ``verify:mc`` span."""
        trace_path = tmp_path / "trace.json"
        # Four shards' worth of replay work genuinely spreads across all 4
        # workers.
        trials = _trials_for_shards(pcr_schedule, 4)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "simulate",
                "--assay", "PCR", "--scheduler", "list",
                "--trials", str(trials), "--workers", "4",
                "--trace-out", str(trace_path),
            ],
            capture_output=True,
            text=True,
            timeout=180,
            env=_subprocess_env(),
            cwd=str(SRC_DIR.parent),
        )
        assert proc.returncode == 0, proc.stderr
        assert "trace written to" in proc.stderr

        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) == []
        events = document["traceEvents"]
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)

        (mc,) = by_name["verify:mc"]
        assert mc["args"]["shards"] == 4
        shards = by_name["verify:shard"]
        assert len(shards) == 4
        trace_id = document["otherData"]["trace_id"]
        for shard in shards:
            assert shard["args"]["parent_id"] == mc["args"]["span_id"]
            assert shard["args"]["trace_id"] == trace_id
            assert shard["dur"] >= 0
        # The shard bounds tile [0, trials) exactly once.
        bounds = sorted((s["args"]["lo"], s["args"]["hi"]) for s in shards)
        assert bounds[0][0] == 0 and bounds[-1][1] == trials
        assert all(
            bounds[i][1] == bounds[i + 1][0] for i in range(len(bounds) - 1)
        )
        # Shards ran in worker processes: at least one records a foreign pid.
        assert {s["pid"] for s in shards} - {mc["pid"]}
