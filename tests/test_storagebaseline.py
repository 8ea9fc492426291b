"""Tests of the dedicated-storage baseline (retiming, resources, comparison)."""

import pytest

from repro.storagebaseline.comparison import compare_with_dedicated_storage
from repro.storagebaseline.resources import (
    STORAGE_UNIT_DEVICE,
    baseline_resources,
    baseline_transport_tasks,
)
from repro.storagebaseline.retiming import DedicatedStorageRetiming
from repro.scheduling.transport import extract_transport_tasks, peak_storage_demand


class TestRetiming:
    def test_makespan_never_shrinks(self, pcr_schedule):
        retimed = DedicatedStorageRetiming().retime(pcr_schedule)
        assert retimed.makespan >= pcr_schedule.makespan

    def test_all_operations_retimed(self, pcr_schedule):
        retimed = DedicatedStorageRetiming().retime(pcr_schedule)
        for op in pcr_schedule.graph.device_operations():
            assert op.op_id in retimed.start_times
            assert retimed.end_times[op.op_id] - retimed.start_times[op.op_id] == \
                pcr_schedule.entry(op.op_id).duration

    def test_stored_sample_accounting(self, pcr_schedule):
        retimed = DedicatedStorageRetiming().retime(pcr_schedule)
        storing = [t for t in extract_transport_tasks(pcr_schedule) if t.needs_storage]
        assert retimed.stored_samples == len(storing)
        kinds = [access.kind for access in retimed.storage_unit.accesses]
        assert kinds.count("store") == kinds.count("fetch") == len(storing)

    def test_more_ports_never_slower(self, ra_result):
        schedule = ra_result.schedule
        one_port = DedicatedStorageRetiming(num_ports=1).retime(schedule)
        two_ports = DedicatedStorageRetiming(num_ports=2).retime(schedule)
        assert two_ports.makespan <= one_port.makespan

    def test_queueing_delay_nonnegative(self, ra_result):
        retimed = DedicatedStorageRetiming().retime(ra_result.schedule)
        assert retimed.total_queueing_delay >= 0


class TestBaselineResources:
    def test_storage_traffic_rerouted_through_unit(self, ra_result):
        tasks = baseline_transport_tasks(ra_result.schedule)
        storing = [t for t in extract_transport_tasks(ra_result.schedule) if t.needs_storage]
        touching_unit = [
            t for t in tasks
            if STORAGE_UNIT_DEVICE in (t.source_device, t.target_device)
        ]
        assert len(touching_unit) == 2 * len(storing)
        assert all(not t.needs_storage for t in touching_unit)

    def test_resources_include_unit_valves(self, ra_result):
        resources = baseline_resources(ra_result.schedule)
        if peak_storage_demand(ra_result.schedule) > 0:
            assert resources.storage_unit_valves > 0
            assert STORAGE_UNIT_DEVICE in resources.architecture.placement
        assert resources.total_valves == resources.transport_valves + resources.storage_unit_valves
        assert resources.num_edges == resources.architecture.num_edges

    def test_schedule_without_storage_needs_no_unit(self, diamond_graph, two_mixer_library):
        from repro.scheduling.schedule import Schedule

        schedule = Schedule(diamond_graph, two_mixer_library, transport_time=10)
        schedule.assign("i1", None, 0, 0)
        schedule.assign("i2", None, 0, 0)
        schedule.assign("o1", "mixer1", 0, 60)
        schedule.assign("o2", "mixer1", 60, 120)
        schedule.assign("o3", "mixer2", 70, 130)
        schedule.assign("o4", "mixer1", 140, 200)
        resources = baseline_resources(schedule)
        assert resources.storage_unit_valves == 0
        assert resources.storage_cells == 0


class TestComparison:
    def test_fig10_shape_for_storage_heavy_assay(self, ra_result):
        comparison = compare_with_dedicated_storage(ra_result.schedule, ra_result.architecture)
        # The proposed flow is never slower than the dedicated-storage baseline.
        assert comparison.execution_time_ratio <= 1.0
        assert comparison.baseline_execution_time >= comparison.proposed_execution_time
        assert comparison.execution_time_improvement >= 0.0
        assert comparison.proposed_valves == ra_result.architecture.num_valves

    def test_ratios_defined_without_storage(self, pcr_result):
        comparison = compare_with_dedicated_storage(pcr_result.schedule, pcr_result.architecture)
        assert comparison.execution_time_ratio <= 1.0
        assert comparison.valve_ratio > 0.0
