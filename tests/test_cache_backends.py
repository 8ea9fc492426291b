"""Tests of the cache-backend layer: the backend resolver, the envelope
format, the disk tier's corruption handling, the shared tier's protocol
against an in-process cache daemon, and cross-cache single-flight claims."""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import pickle
import socket
import threading
import time

import pytest

from repro import keys
from repro.batch import cache as cache_module
from repro.batch.cache import ResultCache
from repro.batch.engine import BatchSynthesisEngine
from repro.batch.jobs import manifest_jobs
from repro.batch.cache_backends import CACHE_BACKENDS, cache_tiers
from repro.batch.cache_backends.base import decode_envelope, encode_envelope
from repro.batch.cache_backends.disk import DiskCacheTier
from repro.batch.cache_backends.shared import (
    ClaimOutcome,
    SharedCacheTier,
    parse_cache_addr,
)
from repro.obs.metrics import daemon_events_counter
from repro.obs.trace import TraceRecorder, install_recorder, uninstall_recorder
from repro.service import CacheDaemon, CacheDaemonConfig
from repro.service.cachedaemon import MAX_LEASE_S

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


@contextlib.contextmanager
def running_daemon(**config_kwargs):
    """An in-process cache daemon on an ephemeral port, torn down on exit."""
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


@pytest.fixture()
def daemon():
    with running_daemon() as instance:
        yield instance


@pytest.fixture()
def daemon_addr(daemon):
    return f"127.0.0.1:{daemon.bound_port}"


def free_port() -> int:
    """A port that was just free — nothing listens on it afterwards."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestEnvelope:
    def test_roundtrip(self):
        ok, value = decode_envelope(encode_envelope({"makespan": 330}))
        assert ok and value == {"makespan": 330}

    def test_truncated_bytes_are_a_miss(self):
        data = encode_envelope([1, 2, 3])
        ok, value = decode_envelope(data[: len(data) // 2])
        assert not ok and value is None

    def test_garbage_bytes_are_a_miss(self):
        assert decode_envelope(b"not a pickle at all") == (False, None)

    def test_other_key_version_is_a_miss(self):
        stale = pickle.dumps((keys.KEY_VERSION + 1, {"x": 1}))
        assert decode_envelope(stale) == (False, None)

    def test_legacy_unversioned_object_is_a_miss(self):
        assert decode_envelope(pickle.dumps({"x": 1})) == (False, None)


class TestEnvelopeSpans:
    def test_traced_disk_put_and_get_record_encode_and_decode(self, tmp_path):
        rec = TraceRecorder()
        token = install_recorder(rec)
        try:
            ResultCache(cache_dir=tmp_path).put(KEY_A, {"makespan": 330})
            assert ResultCache(cache_dir=tmp_path).get(KEY_A) == {"makespan": 330}
        finally:
            uninstall_recorder(token)
        (encode,) = [s for s in rec.spans() if s.name == "cache:encode"]
        (decode,) = [s for s in rec.spans() if s.name == "cache:decode"]
        assert encode.category == decode.category == "cache"
        assert encode.attributes["bytes"] == decode.attributes["bytes"] > 0
        (disk_get,) = [s for s in rec.spans() if s.name == "cache:get"]
        assert decode.parent_id == disk_get.span_id


class TestCacheTiers:
    def test_every_backend_name_resolves(self, tmp_path):
        locations = {
            "memory": {},
            "disk": {"cache_dir": tmp_path},
            "shared": {"cache_addr": "127.0.0.1:1"},
        }
        assert set(CACHE_BACKENDS) == set(locations)
        for name, given in locations.items():
            resolved, _ = cache_tiers(
                name, given.get("cache_dir"), given.get("cache_addr")
            )
            assert resolved == name

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(ValueError, match="memory"):
            cache_tiers("nope", None, None)

    def test_disk_backend_requires_cache_dir(self):
        with pytest.raises(ValueError, match="cache-dir"):
            cache_tiers("disk", None, None)

    def test_shared_backend_requires_cache_addr(self):
        with pytest.raises(ValueError, match="cache-addr"):
            cache_tiers("shared", None, None)

    def test_shared_backend_stacks_disk_in_front(self, tmp_path):
        name, tiers = cache_tiers("shared", tmp_path, "127.0.0.1:1")
        assert name == "shared"
        assert [tier.kind for tier in tiers] == ["disk", "shared"]

    def test_locations_alone_pick_the_backend(self, tmp_path):
        assert cache_tiers(None, None, None) == ("memory", [])
        name, tiers = cache_tiers(None, tmp_path, None)
        assert name == "disk" and [t.kind for t in tiers] == ["disk"]
        name, tiers = cache_tiers(None, None, "127.0.0.1:1")
        assert name == "shared" and [t.kind for t in tiers] == ["shared"]
        name, tiers = cache_tiers(None, tmp_path, "127.0.0.1:1")
        assert name == "shared" and [t.kind for t in tiers] == ["disk", "shared"]

    @pytest.mark.parametrize(
        "backend, given, flag",
        [
            ("memory", {"cache_dir": "DIR"}, "cache-dir"),
            ("memory", {"cache_addr": "127.0.0.1:1"}, "cache-addr"),
            ("disk", {"cache_dir": "DIR", "cache_addr": "127.0.0.1:1"}, "cache-addr"),
        ],
    )
    def test_a_location_the_backend_ignores_is_rejected(
        self, tmp_path, backend, given, flag
    ):
        if given.get("cache_dir") == "DIR":
            given = dict(given, cache_dir=tmp_path)
        with pytest.raises(ValueError, match=flag):
            cache_tiers(backend, given.get("cache_dir"), given.get("cache_addr"))
        with pytest.raises(ValueError, match=flag):
            ResultCache(backend=backend, **given)


class TestParseCacheAddr:
    def test_host_port(self):
        assert parse_cache_addr("10.0.0.5:8643") == ("10.0.0.5", 8643)

    @pytest.mark.parametrize("addr", ["nohost", ":8643", "h:notaport", "h:0", "h:70000"])
    def test_malformed_addresses_raise(self, addr):
        with pytest.raises(ValueError):
            parse_cache_addr(addr)


class TestDiskTierCorruption:
    """Satellite: a damaged persistent tier degrades to a miss, never a crash."""

    def test_roundtrip_and_clean_tracking(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        assert tier.put(KEY_A, {"v": 1})
        assert tier.writes == 1
        assert tier.is_clean(KEY_A)
        assert tier.get(KEY_A) == {"v": 1}
        assert tier.contains(KEY_A)

    def test_truncated_file_is_a_miss_and_unlinked(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.put(KEY_A, {"v": 1})
        path = tmp_path / f"{KEY_A}.pkl"
        path.write_bytes(path.read_bytes()[:10])
        assert tier.get(KEY_A) is None
        assert not path.exists()  # quarantined so the next run re-solves
        assert not tier.is_clean(KEY_A)

    def test_garbage_file_is_a_miss_and_unlinked(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        path = tmp_path / f"{KEY_B}.pkl"
        path.write_bytes(b"\x00\xffgarbage")
        assert tier.get(KEY_B) is None
        assert not path.exists()

    def test_stale_key_version_is_a_miss_and_unlinked(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        path = tmp_path / f"{KEY_C}.pkl"
        path.write_bytes(pickle.dumps((keys.KEY_VERSION + 7, {"old": True})))
        assert tier.get(KEY_C) is None
        assert not path.exists()

    def test_corrupt_entry_through_result_cache_is_a_soft_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY_A, {"v": 1})
        (tmp_path / f"{KEY_A}.pkl").write_bytes(b"junk")
        cache.clear()  # memory only; the corrupt file stays
        assert cache.get(KEY_A) is None
        assert cache.stats.misses == 1
        assert not (tmp_path / f"{KEY_A}.pkl").exists()

    def test_write_failure_is_soft_and_leaves_no_partial_file(self, tmp_path, monkeypatch):
        tier = DiskCacheTier(tmp_path)
        monkeypatch.setattr(
            "pathlib.Path.write_bytes",
            lambda self, data: (_ for _ in ()).throw(OSError("disk full")),
        )
        assert tier.put(KEY_A, {"v": 1}) is False
        assert tier.writes == 0
        assert not tier.is_clean(KEY_A)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []  # no orphaned temp file

    def test_clear_unlinks_entries(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.put(KEY_A, 1)
        tier.put(KEY_B, 2)
        tier.clear()
        assert not tier.contains(KEY_A)
        assert not tier.is_clean(KEY_A)


class TestSharedTier:
    def test_kv_roundtrip(self, daemon, daemon_addr):
        tier = SharedCacheTier(daemon_addr)
        assert tier.get(KEY_A) is None
        assert tier.put(KEY_A, {"v": 42})
        assert tier.writes == 1
        assert tier.contains(KEY_A)
        assert tier.get(KEY_A) == {"v": 42}
        assert daemon.stats.puts == 1
        assert daemon.stats.hits == 2  # the HEAD probe counts as one too

    def test_clear_drops_entries(self, daemon_addr):
        tier = SharedCacheTier(daemon_addr)
        tier.put(KEY_A, 1)
        tier.clear()
        assert not tier.contains(KEY_A)
        assert tier.get(KEY_A) is None

    def test_claim_lifecycle(self, daemon_addr):
        first = SharedCacheTier(daemon_addr)
        second = SharedCacheTier(daemon_addr)
        outcome = first.claim(KEY_A, lease_s=30.0)
        assert outcome.state == "granted" and not outcome.takeover
        # Same owner re-claims: granted again (lease refresh).
        assert first.claim(KEY_A, lease_s=30.0).state == "granted"
        # Another owner: denied with a retry hint bounded by the lease.
        denied = second.claim(KEY_A, lease_s=30.0)
        assert denied.state == "claimed"
        assert 0 < denied.retry_after_s <= 30.0
        # Publishing the value releases the claim: now "present" for all.
        first.put(KEY_A, {"v": 1})
        assert second.claim(KEY_A).state == "present"

    def test_release_is_owner_checked(self, daemon, daemon_addr):
        first = SharedCacheTier(daemon_addr)
        second = SharedCacheTier(daemon_addr)
        first.claim(KEY_A, lease_s=30.0)
        second.release(KEY_A)  # not the owner: ignored
        assert second.claim(KEY_A).state == "claimed"
        first.release(KEY_A)
        assert second.claim(KEY_A).state == "granted"
        assert daemon.stats.releases == 1

    def test_expired_lease_is_taken_over(self, daemon, daemon_addr):
        dead = SharedCacheTier(daemon_addr)
        assert dead.claim(KEY_A, lease_s=0.2).state == "granted"
        survivor = SharedCacheTier(daemon_addr)
        assert survivor.claim(KEY_A).state == "claimed"
        time.sleep(0.25)
        outcome = survivor.claim(KEY_A)
        assert outcome.state == "granted" and outcome.takeover
        assert daemon.stats.takeovers == 1

    def test_unreachable_daemon_degrades_softly(self):
        tier = SharedCacheTier(f"127.0.0.1:{free_port()}", request_timeout_s=0.5)
        assert tier.get(KEY_A) is None
        assert tier.put(KEY_A, 1) is False
        assert not tier.contains(KEY_A)
        assert tier.claim(KEY_A).state == "unavailable"
        tier.release(KEY_A)  # no raise
        tier.clear()  # no raise

    def test_version_skewed_entry_is_a_miss_but_not_deleted(self, daemon_addr):
        tier = SharedCacheTier(daemon_addr)
        skewed = pickle.dumps((keys.KEY_VERSION + 1, {"other": True}))
        status, _ = tier._request("PUT", f"/kv/{KEY_A}", body=skewed)
        assert status == 200
        assert tier.get(KEY_A) is None  # a miss for this version...
        assert tier.contains(KEY_A)  # ...but other replicas may want it


class TestDaemonEndpoints:
    def test_malformed_key_is_rejected(self, daemon_addr):
        tier = SharedCacheTier(daemon_addr)
        status, _ = tier._request("GET", "/kv/not/a/key")
        assert status == 400
        status, _ = tier._request("GET", "/kv/" + "x" * 300)
        assert status == 400

    def test_empty_put_body_is_rejected(self, daemon_addr):
        tier = SharedCacheTier(daemon_addr)
        status, _ = tier._request("PUT", f"/kv/{KEY_A}", body=b"")
        assert status == 400

    def test_unknown_endpoint_is_404(self, daemon_addr):
        status, _ = SharedCacheTier(daemon_addr)._request("GET", "/nope")
        assert status == 404

    def test_lru_eviction_is_bounded_and_counted(self):
        with running_daemon(max_entries=2) as daemon:
            tier = SharedCacheTier(f"127.0.0.1:{daemon.bound_port}")
            tier.put(KEY_A, 1)
            tier.put(KEY_B, 2)
            assert tier.get(KEY_A) == 1  # refresh A: B is now oldest
            tier.put(KEY_C, 3)
            assert daemon.stats.evictions == 1
            assert tier.contains(KEY_A) and tier.contains(KEY_C)
            assert not tier.contains(KEY_B)

    def test_lease_is_clamped_to_the_ceiling(self, daemon):
        tier = SharedCacheTier(f"127.0.0.1:{daemon.bound_port}")
        assert tier.claim(KEY_A, lease_s=10 * MAX_LEASE_S).state == "granted"
        deadline = daemon._claims[KEY_A].deadline
        assert deadline - time.monotonic() <= MAX_LEASE_S + 1.0

    def test_stats_count_only_this_daemons_events(self):
        counter = daemon_events_counter()
        before = counter.value(event="puts")
        first, second = CacheDaemon(), CacheDaemon()
        first.stats.inc("puts")
        first.stats.inc("puts")
        assert first.stats.puts == 2
        assert second.stats.puts == 0
        assert second.stats.as_dict()["puts"] == 0
        # /metrics keeps the process-wide sum.
        assert counter.value(event="puts") == before + 2

    def test_stats_and_healthz_payloads(self, daemon_addr):
        tier = SharedCacheTier(daemon_addr)
        tier.put(KEY_A, 1)
        tier.get(KEY_A)
        tier.claim(KEY_B, lease_s=30.0)
        status, body = tier._request("GET", "/stats")
        assert status == 200
        stats = json.loads(body.decode("utf-8"))
        assert stats["puts"] == 1
        assert stats["hits"] == 1
        assert stats["claims_granted"] == 1
        assert stats["entries"] == 1
        assert stats["claims"] == 1
        status, body = tier._request("GET", "/healthz")
        assert status == 200
        health = json.loads(body.decode("utf-8"))
        assert health["status"] == "ok"
        assert health["entries"] == 1


class TestSharedResultCache:
    def test_shared_hits_promote_to_memory(self, daemon_addr):
        writer = ResultCache(backend="shared", cache_addr=daemon_addr)
        reader = ResultCache(backend="shared", cache_addr=daemon_addr)
        writer.put(KEY_A, {"v": 9})
        assert reader.get(KEY_A) == {"v": 9}
        assert reader.stats.shared_hits == 1
        assert reader.get(KEY_A) == {"v": 9}  # now served by memory
        assert reader.stats.memory_hits == 1
        assert reader.stats.shared_hits == 1

    def test_memory_only_entries_stay_local(self, daemon_addr):
        writer = ResultCache(backend="shared", cache_addr=daemon_addr)
        reader = ResultCache(backend="shared", cache_addr=daemon_addr)
        writer.put(KEY_A, {"local": True}, disk=False)
        assert reader.get(KEY_A) is None

    def test_flush_skips_entries_the_shared_tier_already_holds(self, daemon_addr):
        cache = ResultCache(backend="shared", cache_addr=daemon_addr)
        cache.put(KEY_A, 1)
        tier = cache.tiers[0]
        assert tier.writes == 1
        assert cache.flush_to_disk() == 0  # already published on put
        assert tier.writes == 1

    def test_tier_counters_surface_kind_and_writes(self, daemon_addr):
        cache = ResultCache(backend="shared", cache_addr=daemon_addr)
        cache.put(KEY_A, 1)
        assert cache.tier_counters() == [{"kind": "shared", "writes": 1}]


class TestCrossCacheSingleFlight:
    """Two independent caches (stand-ins for two replica processes)
    arbitrating through one daemon."""

    def test_waiter_receives_the_value_the_claimant_publishes(self, daemon_addr):
        claimant = ResultCache(backend="shared", cache_addr=daemon_addr)
        waiter = ResultCache(backend="shared", cache_addr=daemon_addr)
        assert claimant.get(KEY_A) is None  # claims locally and remotely
        assert claimant.stats.claims == 1
        results = []
        thread = threading.Thread(target=lambda: results.append(waiter.get(KEY_A)))
        thread.start()
        time.sleep(0.05)  # let the waiter hit the remote claim and poll
        claimant.put(KEY_A, {"solved": True})
        thread.join(timeout=10.0)
        assert results == [{"solved": True}]
        assert waiter.stats.claim_waits == 1
        assert waiter.stats.shared_hits == 1
        assert waiter.stats.claims == 0  # it never computed

    def test_dead_claimants_lease_expires_into_a_takeover(self, daemon_addr):
        dead = SharedCacheTier(daemon_addr)
        assert dead.claim(KEY_A, lease_s=0.3).state == "granted"
        survivor = ResultCache(backend="shared", cache_addr=daemon_addr)
        start = time.monotonic()
        assert survivor.get(KEY_A) is None  # granted via takeover: compute
        assert time.monotonic() - start >= 0.2
        assert survivor.stats.takeovers == 1
        assert survivor.stats.claims == 1

    def test_abandon_releases_the_remote_claim(self, daemon_addr):
        first = ResultCache(backend="shared", cache_addr=daemon_addr)
        second = SharedCacheTier(daemon_addr)
        assert first.get(KEY_A) is None
        assert second.claim(KEY_A, lease_s=30.0).state == "claimed"
        first.abandon(KEY_A)
        assert second.claim(KEY_A, lease_s=30.0).state == "granted"

    def test_unreachable_daemon_degrades_to_local_single_flight(self):
        cache = ResultCache(backend="shared", cache_addr=f"127.0.0.1:{free_port()}")
        assert cache.get(KEY_A) is None  # unavailable: compute locally
        assert cache.stats.claims == 1
        cache.put(KEY_A, {"v": 1})  # soft write-through failure
        assert cache.get(KEY_A) == {"v": 1}  # memory tier still serves


def held_claim(tier, key, wait_s=4.0):
    """Start ``tier.claim(key, wait_s=...)`` on a thread; ``(thread, out)``.

    ``out`` receives ``(outcome, seconds the claim took)``.
    """
    out = []

    def ask():
        start = time.monotonic()
        outcome = tier.claim(key, lease_s=30.0, wait_s=wait_s)
        out.append((outcome, time.monotonic() - start))

    thread = threading.Thread(target=ask)
    thread.start()
    return thread, out


class TestHeldClaim:
    """A re-ask with a wait bound is held by the daemon until the claim
    ends, instead of being answered at once and re-polled."""

    def test_waiter_wakes_on_the_publish_not_the_poll(self, daemon_addr, monkeypatch):
        # With a 5 s poll interval only the held re-ask can return quickly.
        monkeypatch.setattr(cache_module, "CLAIM_POLL_INTERVAL_S", 5.0)
        claimant = ResultCache(backend="shared", cache_addr=daemon_addr)
        waiter = ResultCache(backend="shared", cache_addr=daemon_addr)
        assert claimant.get(KEY_A) is None
        results = []
        thread = threading.Thread(
            target=lambda: results.append((waiter.get(KEY_A), time.monotonic()))
        )
        thread.start()
        time.sleep(0.3)  # the waiter is now inside a held re-ask
        published_at = time.monotonic()
        claimant.put(KEY_A, {"solved": True})
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        value, returned_at = results[0]
        assert value == {"solved": True}
        assert returned_at - published_at < 1.0
        assert waiter.stats.claim_waits == 1
        assert waiter.stats.claims == 0

    def test_held_reask_returns_on_abandon(self, daemon_addr):
        claimant = ResultCache(backend="shared", cache_addr=daemon_addr)
        assert claimant.get(KEY_A) is None
        thread, out = held_claim(SharedCacheTier(daemon_addr), KEY_A)
        time.sleep(0.3)
        claimant.abandon(KEY_A)
        thread.join(timeout=10.0)
        outcome, took = out[0]
        assert outcome.state == "granted" and not outcome.takeover
        assert took < 1.5

    def test_held_reask_returns_a_takeover_when_the_lease_expires(
        self, daemon, daemon_addr
    ):
        assert SharedCacheTier(daemon_addr).claim(KEY_A, lease_s=0.5).state == "granted"
        thread, out = held_claim(SharedCacheTier(daemon_addr), KEY_A)
        thread.join(timeout=10.0)
        outcome, took = out[0]
        assert outcome.state == "granted" and outcome.takeover
        assert 0.3 < took < 2.0
        assert daemon.stats.takeovers == 1

    def test_held_reask_returns_on_daemon_shutdown(self):
        with running_daemon() as daemon:
            addr = f"127.0.0.1:{daemon.bound_port}"
            assert SharedCacheTier(addr).claim(KEY_A, lease_s=30.0).state == "granted"
            thread, out = held_claim(SharedCacheTier(addr), KEY_A)
            time.sleep(0.3)
            daemon.request_shutdown_threadsafe()
            thread.join(timeout=10.0)
        outcome, took = out[0]
        assert outcome.state == "claimed"  # answered, not cut off
        assert took < 1.5

    def test_held_reask_stays_below_the_request_timeout(self, daemon_addr):
        assert SharedCacheTier(daemon_addr).claim(KEY_A, lease_s=30.0).state == "granted"
        waiter = SharedCacheTier(daemon_addr, request_timeout_s=0.6)
        start = time.monotonic()
        outcome = waiter.claim(KEY_A, lease_s=30.0, wait_s=60.0)
        assert outcome.state == "claimed"  # the hold ended, the socket did not time out
        assert 0.2 < time.monotonic() - start < 0.6

    def test_immediate_answers_are_paced_to_the_poll_interval(self, monkeypatch):
        window_s, poll_s = 1.05, 0.1
        monkeypatch.setattr(cache_module, "CLAIM_POLL_INTERVAL_S", poll_s)

        class AlwaysClaimed:
            """A claim tier that answers "claimed" at once for a while."""

            kind = "shared"

            def __init__(self):
                self.calls = []

            def claim(self, key, lease_s, wait_s=0.0, trace=None):
                now = time.monotonic()
                self.calls.append((now, wait_s))
                if now - self.calls[0][0] < window_s:
                    return ClaimOutcome(state="claimed", retry_after_s=0.001)
                return ClaimOutcome(state="granted")

            def release(self, key):
                pass

            def is_clean(self, key):
                return False

        tier = AlwaysClaimed()
        cache = ResultCache()
        cache._claims = tier  # the daemon's seat, with no tier in front
        assert cache.get(KEY_A) is None  # granted once the window ends
        first = tier.calls[0][0]
        in_window = [t for t, _ in tier.calls if t - first < window_s]
        assert len(in_window) <= math.ceil(window_s / poll_s) + 1
        assert tier.calls[0][1] == 0.0  # the first ask is answered at once
        assert all(wait_s > 0 for _, wait_s in tier.calls[1:])


class TestRunKeysStayLocal:
    def test_run_level_keys_never_reach_the_daemon(self, daemon, daemon_addr):
        paths = []
        route = daemon._route

        async def recording_route(request):
            paths.append(request.path)
            return await route(request)

        daemon._route = recording_route
        manifest = {
            "defaults": {"ilp_operation_limit": 0},
            "jobs": [{"assay": "PCR"}, {"assay": "IVD"}],
        }
        jobs = manifest_jobs(manifest, source="test manifest")
        cache = ResultCache(backend="shared", cache_addr=daemon_addr)
        engine = BatchSynthesisEngine(max_workers=1, cache=cache)
        first = engine.run(jobs)
        second = engine.run(jobs)  # the run keys now hit memory
        assert first.num_failed == 0 and second.num_failed == 0
        assert all(outcome.cache_hit for outcome in second.outcomes)
        run_keys = {outcome.cache_key for outcome in first.outcomes}
        assert len(run_keys) == 2
        assert paths, "the stage keys did go through the daemon"
        assert not [p for p in paths if any(key in p for key in run_keys)]
        assert daemon.stats.releases == 0
        # Two memory misses on the first run, two hits on the second.
        assert cache.stats.misses >= 2


def record_requests(daemon):
    """Record ``(method, path)`` of every request ``daemon`` answers."""
    requests = []
    route = daemon._route

    async def recording_route(request):
        requests.append((request.method, request.path))
        return await route(request)

    daemon._route = recording_route
    return requests


class TestClaimCarriesTheValue:
    """A claim on a stored key is answered with the value, so a lookup that
    reaches the daemon costs one round trip whether it hits or misses."""

    def test_tier_claim_on_a_stored_key_returns_the_value(self, daemon, daemon_addr):
        SharedCacheTier(daemon_addr).put(KEY_A, {"v": 1})
        reader = SharedCacheTier(daemon_addr)
        outcome = reader.claim(KEY_A)
        assert outcome.state == "present" and outcome.value == {"v": 1}
        assert reader.is_clean(KEY_A)  # observed, so the shutdown flush skips it
        assert daemon.stats.claims_present == 1
        assert daemon.stats.hits == 1  # a value served in a claim is a hit

    def test_lookup_of_a_stored_key_is_one_request(self, daemon, daemon_addr):
        SharedCacheTier(daemon_addr).put(KEY_A, {"v": 1})
        requests = record_requests(daemon)
        cache = ResultCache(backend="shared", cache_addr=daemon_addr)
        assert cache.get(KEY_A) == {"v": 1}
        assert requests == [("POST", f"/claim/{KEY_A}")]
        assert cache.stats.shared_hits == 1 and cache.stats.misses == 0
        assert cache.get(KEY_A) == {"v": 1}  # now from memory: no request
        assert len(requests) == 1
        # The local claim taken for the ask was released with the value.
        assert cache.get_memory(KEY_A) == {"v": 1}
        assert not cache._inflight

    def test_lookup_of_a_missing_key_is_one_request(self, daemon, daemon_addr):
        requests = record_requests(daemon)
        cache = ResultCache(backend="shared", cache_addr=daemon_addr)
        assert cache.get(KEY_A) is None
        assert requests == [("POST", f"/claim/{KEY_A}")]
        assert cache.stats.misses == 1 and cache.stats.claims == 1

    def test_disk_tier_is_read_before_the_daemon(self, daemon, daemon_addr, tmp_path):
        DiskCacheTier(tmp_path).put(KEY_A, {"v": "disk"})
        requests = record_requests(daemon)
        cache = ResultCache(backend="shared", cache_dir=tmp_path, cache_addr=daemon_addr)
        assert cache.get(KEY_A) == {"v": "disk"}
        assert requests == []
        assert cache.stats.disk_hits == 1

    def test_unreadable_envelope_is_a_present_miss_then_computed(self, daemon, daemon_addr):
        skewed = pickle.dumps((keys.KEY_VERSION + 1, {"other": True}))
        status, _ = SharedCacheTier(daemon_addr)._request("PUT", f"/kv/{KEY_A}", body=skewed)
        assert status == 200
        requests = record_requests(daemon)
        cache = ResultCache(backend="shared", cache_addr=daemon_addr)
        assert cache.get(KEY_A) is None  # three present-misses: compute
        assert requests == [("POST", f"/claim/{KEY_A}")] * 3
        assert daemon.stats.claims_present == 3
        assert cache.stats.claims == 1 and cache.stats.shared_hits == 0
        cache.put(KEY_A, {"mine": True})  # overwrites the unreadable entry
        assert SharedCacheTier(daemon_addr).get(KEY_A) == {"mine": True}

    def test_a_held_reask_receives_the_published_value(self, daemon, daemon_addr):
        claimant = SharedCacheTier(daemon_addr)
        assert claimant.claim(KEY_A, lease_s=30.0).state == "granted"
        thread, out = held_claim(SharedCacheTier(daemon_addr), KEY_A)
        time.sleep(0.3)
        claimant.put(KEY_A, {"solved": True})
        thread.join(timeout=10.0)
        outcome, took = out[0]
        assert outcome.state == "present" and outcome.value == {"solved": True}
        assert took < 1.5


#: One PCR job on the list scheduler: three stage keys and one run key.
ONE_JOB = {"defaults": {"ilp_operation_limit": 0}, "jobs": [{"assay": "PCR"}]}
STAT_FIELDS = ("memory_hits", "shared_hits", "disk_hits", "misses", "claims", "claim_waits")


def batch_stats(cache):
    """The lookup and claim counters of one one-job batch on ``cache``."""
    engine = BatchSynthesisEngine(max_workers=1, cache=cache)
    report = engine.run(manifest_jobs(ONE_JOB, source="test manifest"))
    assert report.num_failed == 0
    return {name: getattr(report.cache_stats, name) for name in STAT_FIELDS}


class TestOneJobBatchStats:
    """The counters a one-job batch reports are those of a ``GET`` before
    every claim: the claim answer that carries the value counts as the
    same shared hit, a granted claim as the same miss."""

    def test_cold_warm_and_repeated_batches(self, daemon_addr):
        def replica():
            return ResultCache(backend="shared", cache_addr=daemon_addr)

        first = replica()
        assert batch_stats(first) == {
            "memory_hits": 0, "shared_hits": 0, "disk_hits": 0,
            "misses": 4, "claims": 3, "claim_waits": 0,
        }
        assert batch_stats(first) == {
            "memory_hits": 1, "shared_hits": 0, "disk_hits": 0,
            "misses": 0, "claims": 0, "claim_waits": 0,
        }
        assert batch_stats(replica()) == {
            "memory_hits": 0, "shared_hits": 3, "disk_hits": 0,
            "misses": 1, "claims": 0, "claim_waits": 0,
        }

    def test_disk_tier_in_front(self, daemon_addr, tmp_path):
        def replica():
            return ResultCache(backend="shared", cache_dir=tmp_path, cache_addr=daemon_addr)

        assert batch_stats(replica())["claims"] == 3
        assert batch_stats(replica()) == {
            "memory_hits": 0, "shared_hits": 0, "disk_hits": 3,
            "misses": 1, "claims": 0, "claim_waits": 0,
        }
