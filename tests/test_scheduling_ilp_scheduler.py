"""Tests of the exact ILP scheduler (paper constraints (1)-(7))."""

import pytest

from repro.devices.device import default_device_library
from repro.graph.analysis import critical_path_length
from repro.graph.library import build_pcr
from repro.graph.sequencing_graph import SequencingGraph
from repro.scheduling.ilp_scheduler import IlpScheduler, IlpSchedulerConfig
from repro.scheduling.list_scheduler import ListScheduler
from repro.scheduling.transport import cross_device_gap_sum, total_storage_time


@pytest.fixture(scope="module")
def two_mixers():
    return default_device_library(num_mixers=2)


class TestIlpSchedulerSmall:
    def test_diamond_schedule_is_valid_and_tight(self, diamond_graph, two_mixers):
        scheduler = IlpScheduler(two_mixers, IlpSchedulerConfig(time_limit_s=20))
        schedule = scheduler.schedule(diamond_graph)
        assert schedule.validate() == []
        # Optimal: o1 (60) then o2 || o3 (with one transport), then o4.
        assert schedule.makespan <= 200
        assert schedule.solve.status.is_feasible()

    def test_single_operation(self, two_mixers):
        graph = SequencingGraph("one")
        graph.add_mix("o1", 45)
        schedule = IlpScheduler(two_mixers).schedule(graph)
        assert schedule.entry("o1").duration == 45
        assert schedule.makespan == 45

    def test_empty_graph(self, two_mixers):
        graph = SequencingGraph("none")
        schedule = IlpScheduler(two_mixers).schedule(graph)
        assert schedule.makespan == 0

    def test_chain_on_one_mixer_has_no_transport(self, chain_graph):
        library = default_device_library(num_mixers=1)
        schedule = IlpScheduler(library, IlpSchedulerConfig(time_limit_s=20)).schedule(chain_graph)
        assert schedule.validate() == []
        assert schedule.makespan == 5 * 30
        assert cross_device_gap_sum(schedule) == 0

    def test_makespan_not_below_critical_path(self, diamond_graph, two_mixers):
        schedule = IlpScheduler(two_mixers, IlpSchedulerConfig(time_limit_s=20)).schedule(diamond_graph)
        assert schedule.makespan >= critical_path_length(diamond_graph)

    def test_incompatible_operations_raise(self, two_mixers):
        from repro.graph.sequencing_graph import Operation, OperationType

        graph = SequencingGraph("detect-only")
        graph.add_operation(Operation("o1", OperationType.DETECT, 30))
        with pytest.raises(RuntimeError):
            IlpScheduler(two_mixers).schedule(graph)

    def test_empty_library_rejected(self):
        from repro.devices.device import DeviceLibrary

        with pytest.raises(ValueError):
            IlpScheduler(DeviceLibrary())


class TestObjectiveWeights:
    def test_storage_weight_reduces_gap_time(self, two_mixers, diamond_graph):
        """With beta > 0 the total cross-device gap never increases."""
        exec_only = IlpScheduler(
            two_mixers, IlpSchedulerConfig(alpha=1.0, beta=0.0, time_limit_s=20)
        ).schedule(diamond_graph)
        with_storage = IlpScheduler(
            two_mixers, IlpSchedulerConfig(alpha=100.0, beta=1.0, time_limit_s=20)
        ).schedule(diamond_graph)
        assert total_storage_time(with_storage) <= max(total_storage_time(exec_only), 0) + 1e-9

    def test_ilp_matches_or_beats_list_scheduler_on_pcr(self, two_mixers):
        pcr = build_pcr(mix_time=80)
        ilp = IlpScheduler(two_mixers, IlpSchedulerConfig(time_limit_s=30)).schedule(pcr)
        heuristic = ListScheduler(two_mixers).schedule(pcr)
        assert ilp.validate() == []
        assert ilp.makespan <= heuristic.makespan
