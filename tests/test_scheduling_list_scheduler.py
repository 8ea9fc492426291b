"""Tests (including property-based) of the storage-aware list scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.device import default_device_library
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.library import build_pcr
from repro.scheduling.ilp_scheduler import schedule_lower_bound
from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig
from repro.scheduling.transport import total_storage_time


def certified_bound(graph, library):
    """The scheduling model's certified floor on the makespan, at the list
    scheduler's default transport time."""
    compatible = {op.op_id: library.devices_for(op.kind) for op in graph.device_operations()}
    return schedule_lower_bound(graph, compatible, ListSchedulerConfig().transport_time)[0]


class TestListSchedulerBasics:
    def test_empty_library_rejected(self):
        from repro.devices.device import DeviceLibrary

        with pytest.raises(ValueError):
            ListScheduler(DeviceLibrary())

    def test_schedule_is_valid(self, diamond_graph, two_mixer_library):
        scheduler = ListScheduler(two_mixer_library)
        schedule = scheduler.schedule(diamond_graph)
        assert schedule.validate() == []

    def test_single_device_serializes_everything(self, diamond_graph):
        library = default_device_library(num_mixers=1)
        schedule = ListScheduler(library).schedule(diamond_graph)
        assert schedule.makespan >= 4 * 60

    def test_two_devices_expose_parallelism(self, diamond_graph, two_mixer_library):
        schedule = ListScheduler(two_mixer_library).schedule(diamond_graph)
        # o2 and o3 can overlap on different mixers, so the makespan is below
        # the serial bound.
        assert schedule.makespan < 4 * 60 + 4 * 10

    def test_makespan_respects_lower_bounds(self, pcr_graph, two_mixer_library):
        schedule = ListScheduler(two_mixer_library).schedule(pcr_graph)
        assert schedule.makespan >= certified_bound(pcr_graph, two_mixer_library)

    def test_deterministic(self, pcr_graph, two_mixer_library):
        first = ListScheduler(two_mixer_library).schedule(pcr_graph)
        second = ListScheduler(two_mixer_library).schedule(pcr_graph)
        assert first.as_table() == second.as_table()

    def test_unsupported_operation_kind_raises(self, ivd_graph):
        library = default_device_library(num_mixers=2)  # no detectors
        with pytest.raises(RuntimeError):
            ListScheduler(library).schedule(ivd_graph)

    def test_mixed_device_kinds(self, ivd_graph):
        library = default_device_library(num_mixers=2, num_detectors=1)
        schedule = ListScheduler(library).schedule(ivd_graph)
        assert schedule.validate() == []

    def test_inputs_scheduled_at_time_zero(self, pcr_graph, two_mixer_library):
        schedule = ListScheduler(two_mixer_library).schedule(pcr_graph)
        for op in pcr_graph.input_operations():
            assert schedule.entry(op.op_id).start == 0


class TestStorageAwareness:
    def test_storage_aware_never_stores_more(self, two_mixer_library):
        """Across several random assays, the storage-aware order never caches
        more fluid-seconds than the plain earliest-start order."""
        wins = 0
        for seed in range(5):
            graph = random_assay(RandomAssayConfig(num_operations=16, seed=seed))
            aware = ListScheduler(
                two_mixer_library, ListSchedulerConfig(storage_aware=True)
            ).schedule(graph)
            plain = ListScheduler(
                two_mixer_library, ListSchedulerConfig(storage_aware=False)
            ).schedule(graph)
            assert aware.validate() == []
            assert plain.validate() == []
            if total_storage_time(aware) <= total_storage_time(plain):
                wins += 1
        assert wins >= 3

    def test_storage_aware_flag_changes_nothing_for_chain(self, chain_graph, two_mixer_library):
        aware = ListScheduler(two_mixer_library, ListSchedulerConfig(storage_aware=True)).schedule(chain_graph)
        plain = ListScheduler(two_mixer_library, ListSchedulerConfig(storage_aware=False)).schedule(chain_graph)
        assert aware.makespan == plain.makespan


@settings(max_examples=20, deadline=None)
@given(
    num_operations=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2000),
    num_mixers=st.integers(min_value=1, max_value=4),
    storage_aware=st.booleans(),
)
def test_list_scheduler_always_produces_valid_schedules(
    num_operations, seed, num_mixers, storage_aware
):
    """Property: the heuristic always returns a complete, constraint-satisfying schedule."""
    graph = random_assay(RandomAssayConfig(num_operations=num_operations, seed=seed))
    library = default_device_library(num_mixers=num_mixers)
    scheduler = ListScheduler(library, ListSchedulerConfig(storage_aware=storage_aware))
    schedule = scheduler.schedule(graph)
    assert schedule.validate() == []
    assert schedule.makespan >= certified_bound(graph, library)
