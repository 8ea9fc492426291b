"""Tests of the content-addressed result cache and its key function."""

import sys
import threading
from collections import Counter

import pytest

from repro.batch.cache import ResultCache, cache_key
from repro.graph.sequencing_graph import Operation, OperationType, SequencingGraph
from repro.synthesis.config import FlowConfig, SchedulerEngine


def build_graph(op_order, edge_order, name="assay", durations=None):
    """Build a fixed diamond graph with controllable insertion order."""
    durations = durations or {}
    graph = SequencingGraph(name=name)
    specs = {
        "i1": Operation("i1", OperationType.INPUT, 0),
        "i2": Operation("i2", OperationType.INPUT, 0),
        "o1": Operation("o1", OperationType.MIX, durations.get("o1", 60)),
        "o2": Operation("o2", OperationType.MIX, durations.get("o2", 60)),
        "o3": Operation("o3", OperationType.MIX, durations.get("o3", 60)),
    }
    for op_id in op_order:
        graph.add_operation(specs[op_id])
    for parent, child in edge_order:
        graph.add_edge(parent, child)
    return graph


OPS = ["i1", "i2", "o1", "o2", "o3"]
EDGES = [("i1", "o1"), ("i2", "o1"), ("o1", "o2"), ("o1", "o3"), ("o2", "o3")]


class TestCacheKey:
    def test_node_insertion_order_does_not_matter(self):
        forward = build_graph(OPS, EDGES)
        backward = build_graph(list(reversed(OPS)), list(reversed(EDGES)))
        config = FlowConfig()
        assert cache_key(forward, config) == cache_key(backward, config)

    def test_graph_name_is_ignored(self):
        named = build_graph(OPS, EDGES, name="one")
        renamed = build_graph(OPS, EDGES, name="two")
        assert cache_key(named, FlowConfig()) == cache_key(renamed, FlowConfig())

    def test_mutated_duration_changes_key(self):
        base = build_graph(OPS, EDGES)
        mutated = build_graph(OPS, EDGES, durations={"o2": 61})
        config = FlowConfig()
        assert cache_key(base, config) != cache_key(mutated, config)

    def test_extra_edge_changes_key(self):
        base = build_graph(OPS, EDGES)
        extra = build_graph(OPS, EDGES + [("i2", "o2")])
        config = FlowConfig()
        assert cache_key(base, config) != cache_key(extra, config)

    def test_config_changes_key(self):
        graph = build_graph(OPS, EDGES)
        base = FlowConfig()
        assert cache_key(graph, base) != cache_key(graph, FlowConfig(num_mixers=3))
        assert cache_key(graph, base) != cache_key(graph, FlowConfig(transport_time=11))
        assert cache_key(graph, base) != cache_key(
            graph, FlowConfig(scheduler=SchedulerEngine.LIST)
        )

    def test_runtime_advice_fields_do_not_change_the_key(self):
        # verify_workers steers how fast the verification runs, never what
        # it computes — two configs differing only in worker count must
        # share one cache entry.
        graph = build_graph(OPS, EDGES)
        base = FlowConfig(verify=True, verify_trials=64)
        sharded = FlowConfig(verify=True, verify_trials=64, verify_workers=8)
        assert cache_key(graph, base) == cache_key(graph, sharded)

    def test_key_is_stable_across_calls(self):
        graph = build_graph(OPS, EDGES)
        config = FlowConfig()
        assert cache_key(graph, config) == cache_key(graph, config)
        assert len(cache_key(graph, config)) == 64  # sha256 hex

    def test_synthesis_is_insertion_order_invariant(self):
        """The canonical key is sound only if equal-content graphs produce
        equal results; pin that property for the whole flow."""
        from repro.synthesis.flow import synthesize

        config = FlowConfig(ilp_operation_limit=0)
        forward = synthesize(build_graph(OPS, EDGES), config)
        backward = synthesize(
            build_graph(list(reversed(OPS)), list(reversed(EDGES))), config
        )
        sig = lambda r: sorted(
            (e.op_id, e.start, e.end, e.device_id) for e in r.schedule.entries()
        )
        assert sig(forward) == sig(backward)
        assert forward.schedule.makespan == backward.schedule.makespan


class TestFlowConfigRoundTrip:
    def test_to_dict_from_dict_round_trips(self):
        config = FlowConfig(num_mixers=3, scheduler=SchedulerEngine.LIST, beta=2.5)
        clone = FlowConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.scheduler is SchedulerEngine.LIST

    def test_enums_serialize_as_strings(self):
        data = FlowConfig().to_dict()
        assert data["scheduler"] == "auto"
        assert data["synthesis"] == "heuristic"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown flow-config keys"):
            FlowConfig.from_dict({"num_mixerz": 2})

    def test_invalid_enum_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig.from_dict({"scheduler": "quantum"})

    def test_wrong_typed_values_rejected(self):
        with pytest.raises(ValueError, match="expects bool"):
            FlowConfig.from_dict({"storage_aware": "false"})
        with pytest.raises(ValueError, match="expects int"):
            FlowConfig.from_dict({"num_mixers": "2"})
        with pytest.raises(ValueError, match="expects bool"):
            FlowConfig.from_dict({"auto_expand_grid": 1})

    def test_numeric_widening_is_allowed(self):
        # JSON writers often emit 10.0 for ints and 2 for floats.
        assert FlowConfig.from_dict({"transport_time": 10.0}).transport_time == 10
        assert FlowConfig.from_dict({"alpha": 50}).alpha == 50.0

    def test_optional_annotations_supported(self):
        # Expected types come from the field annotations, so a future
        # Optional field validates correctly (None admitted, members checked).
        from typing import Optional

        from repro.synthesis.config import _check_value_type

        assert _check_value_type("x", None, Optional[int]) is None
        assert _check_value_type("x", 3, Optional[int]) == 3
        with pytest.raises(ValueError, match="int"):
            _check_value_type("x", "3", Optional[int])


class TestResultCache:
    def test_memory_tier_round_trip(self, pcr_result):
        cache = ResultCache()
        cache.put("k1", pcr_result)
        assert cache.get("k1") is pcr_result
        assert cache.get("missing") is None
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self, pcr_result):
        cache = ResultCache(max_entries=2)
        cache.put("a", pcr_result)
        cache.put("b", pcr_result)
        assert cache.get("a") is pcr_result  # touch 'a' so 'b' is the LRU entry
        cache.put("c", pcr_result)
        assert cache.get("b") is None
        assert cache.get("a") is pcr_result
        assert cache.get("c") is pcr_result
        assert cache.stats.evictions == 1

    def test_contains_does_not_touch_stats(self, pcr_result):
        cache = ResultCache()
        cache.put("k", pcr_result)
        assert cache.contains("k")
        assert not cache.contains("other")
        assert cache.stats.lookups == 0

    def test_disk_tier_survives_new_instance(self, pcr_result, tmp_path):
        first = ResultCache(cache_dir=tmp_path)
        first.put("deadbeef", pcr_result)
        second = ResultCache(cache_dir=tmp_path)
        restored = second.get("deadbeef")
        assert restored is not None
        assert restored.schedule.makespan == pcr_result.schedule.makespan
        assert second.stats.disk_hits == 1
        # The disk hit was promoted into memory: next get is a memory hit.
        assert second.get("deadbeef") is restored
        assert second.stats.memory_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, pcr_result, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        (tmp_path / "bad.pkl").write_bytes(b"not a pickle")
        assert cache.get("bad") is None
        assert not (tmp_path / "bad.pkl").exists()  # corrupt entries are dropped

    def test_stale_key_version_disk_entry_is_ignored_not_crashed_on(
        self, pcr_result, tmp_path
    ):
        """An entry written under another KEY_VERSION is a miss, and dropped."""
        import pickle

        from repro.keys import KEY_VERSION

        stale = pickle.dumps((KEY_VERSION - 1, pcr_result), protocol=pickle.HIGHEST_PROTOCOL)
        (tmp_path / "stale.pkl").write_bytes(stale)
        # Pre-envelope v1 files pickled the bare object, with no version at
        # all; those must degrade to misses just the same.
        legacy = pickle.dumps(pcr_result, protocol=pickle.HIGHEST_PROTOCOL)
        (tmp_path / "legacy.pkl").write_bytes(legacy)

        cache = ResultCache(cache_dir=tmp_path)
        assert cache.get("stale") is None
        assert cache.get("legacy") is None
        assert not (tmp_path / "stale.pkl").exists()
        assert not (tmp_path / "legacy.pkl").exists()

    def test_run_level_and_stage_keys_share_one_version_constant(self, monkeypatch):
        """Satellite guard: bumping KEY_VERSION invalidates *both* key kinds."""
        import repro.keys as keys_module
        from repro.synthesis.pipeline import SynthesisPipeline

        graph = build_graph(OPS, EDGES)
        config = FlowConfig()
        run_before = cache_key(graph, config)
        plan_before = [p.key for p in SynthesisPipeline().plan(graph, config)]
        monkeypatch.setattr(keys_module, "KEY_VERSION", keys_module.KEY_VERSION + 1)
        assert cache_key(graph, config) != run_before
        plan_after = [p.key for p in SynthesisPipeline().plan(graph, config)]
        assert all(a != b for a, b in zip(plan_before, plan_after))

    def test_clear(self, pcr_result, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k", pcr_result)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is not None  # still on disk
        cache.clear(disk=True)
        assert cache.get("k") is None

    def test_disk_write_failure_is_soft(self, pcr_result, tmp_path, monkeypatch):
        """A failed disk write (full disk) must not lose the computed result."""
        import pathlib

        cache = ResultCache(cache_dir=tmp_path)

        def failing_write(self, data):
            raise OSError("no space left on device")

        monkeypatch.setattr(pathlib.Path, "write_bytes", failing_write)
        cache.put("k", pcr_result)  # must not raise
        assert cache.get("k") is pcr_result
        assert list(tmp_path.glob(".*tmp")) == []  # no staging file left behind

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_threads_sharing_a_cache_compute_each_key_once(self):
        """Eight threads on one cache, each walking twenty keys from its own
        starting point, with a tiny switch interval: every key is computed
        by exactly one thread and every other thread gets its value."""
        cache = ResultCache(claim_timeout_s=30.0)
        keys = [f"k{i}" for i in range(20)]
        computed = Counter()
        computed_lock = threading.Lock()
        wrong = []

        def worker(offset):
            for key in keys[offset:] + keys[:offset]:
                value = cache.get(key)
                if value is None:  # this thread holds the claim
                    with computed_lock:
                        computed[key] += 1
                    cache.put(key, key.upper())
                elif value != key.upper():
                    wrong.append((key, value))

        threads = [threading.Thread(target=worker, args=(2 * i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert computed == Counter(keys)
        assert not wrong
        assert cache.stats.claims == cache.stats.stores == len(cache) == len(keys)
