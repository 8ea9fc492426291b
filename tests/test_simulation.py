"""Tests of the execution simulator and snapshot rendering."""

import pytest

from repro.simulation.events import EventKind
from repro.simulation.simulator import ChipSimulator
from repro.simulation.snapshot import render_snapshot_ascii


@pytest.fixture(scope="module")
def simulation(pcr_result):
    simulator = ChipSimulator(pcr_result.schedule, pcr_result.architecture)
    return simulator, simulator.run()


class TestSimulationRun:
    def test_replay_is_conflict_free(self, simulation):
        _, result = simulation
        assert result.problems == []
        assert result.is_valid

    def test_every_operation_has_start_and_end_events(self, simulation, pcr_result):
        _, result = simulation
        starts = [e for e in result.events if e.kind is EventKind.OPERATION_START]
        ends = [e for e in result.events if e.kind is EventKind.OPERATION_END]
        device_ops = pcr_result.schedule.graph.device_operations()
        assert len(starts) == len(device_ops)
        assert len(ends) == len(device_ops)

    def test_transport_events_match_routed_tasks(self, simulation, pcr_result):
        _, result = simulation
        transports = [e for e in result.events if e.kind is EventKind.TRANSPORT_START]
        expected = sum(
            1
            for routed in pcr_result.architecture.routed_tasks
            for sub in routed.subpaths
            if sub.purpose == "transport"
        )
        assert len(transports) == expected == result.total_transports

    def test_events_sorted_by_time(self, simulation):
        _, result = simulation
        times = [e.time for e in result.events]
        assert times == sorted(times)

    def test_makespan_covers_schedule(self, simulation, pcr_result):
        _, result = simulation
        assert result.makespan >= pcr_result.schedule.makespan

    def test_segment_utilization_bounds(self, simulation):
        _, result = simulation
        for value in result.segment_utilization().values():
            assert 0.0 <= value <= 1.0


class TestSnapshots:
    def test_snapshot_reports_active_devices(self, simulation, pcr_result):
        simulator, _ = simulation
        entry = next(e for e in pcr_result.schedule.entries() if e.device_id)
        snap = simulator.snapshot(entry.start)
        assert entry.device_id in snap.active_devices
        assert snap.active_devices[entry.device_id] == entry.op_id

    def test_snapshot_of_storage_interval(self, simulation, pcr_result):
        simulator, _ = simulation
        storage_segments = pcr_result.architecture.storage_segments()
        if not storage_segments:
            pytest.skip("this schedule produced no storage")
        edge, (start, end) = storage_segments[0]
        snap = simulator.snapshot(start)
        assert any(state.purpose == "storage" for state in snap.segments.values())
        assert snap.storing_segments()

    def test_idle_snapshot(self, simulation, pcr_result):
        simulator, result = simulation
        snap = simulator.snapshot(result.makespan + 1000)
        assert snap.busy_segment_count() == 0
        assert "(idle)" in "\n".join(snap.describe())

    def test_ascii_rendering_contains_legend_and_devices(self, simulation):
        simulator, result = simulation
        snap = simulator.snapshot(result.makespan // 2)
        art = render_snapshot_ascii(snap)
        assert "legend:" in art
        assert "time:" in art
        assert "[1]" in art

    def test_describe_mentions_operations(self, simulation, pcr_result):
        simulator, _ = simulation
        entry = next(e for e in pcr_result.schedule.entries() if e.device_id)
        lines = simulator.snapshot(entry.start).describe()
        assert any(entry.op_id in line for line in lines)
