"""Tests of the execution-time-only baseline and binding analysis.

The Fig. 9 baseline is the flow with the storage term off:
``FlowConfig(storage_aware=False)`` builds either scheduling engine without
it.  No test here needs scipy: the ILP runs on the default backend.
"""

from repro.scheduling.binding import binding_summary, device_utilization
from repro.scheduling.ilp_scheduler import IlpScheduler
from repro.scheduling.list_scheduler import ListScheduler
from repro.synthesis.config import FlowConfig, SchedulerEngine
from repro.synthesis.flow import _build_scheduler


def time_only_scheduler(engine, library, graph):
    """The scheduler ``FlowConfig(storage_aware=False)`` builds for ``engine``."""
    config = FlowConfig(storage_aware=False, scheduler=engine)
    scheduler, _name = _build_scheduler(config, library, graph)
    return scheduler


class TestTimeOnlyBaseline:
    def test_list_engine_drops_the_storage_tie_break(self, pcr_graph, two_mixer_library):
        scheduler = time_only_scheduler(SchedulerEngine.LIST, two_mixer_library, pcr_graph)
        assert isinstance(scheduler, ListScheduler)
        assert scheduler.config.storage_aware is False

    def test_ilp_engine_drops_the_storage_term(self, diamond_graph, two_mixer_library):
        scheduler = time_only_scheduler(SchedulerEngine.ILP, two_mixer_library, diamond_graph)
        assert isinstance(scheduler, IlpScheduler)
        assert scheduler.config.beta == 0.0

    def test_list_engine_produces_valid_schedule(self, pcr_graph, two_mixer_library):
        scheduler = time_only_scheduler(SchedulerEngine.LIST, two_mixer_library, pcr_graph)
        assert scheduler.schedule(pcr_graph).validate() == []

    def test_ilp_engine_produces_valid_schedule(self, diamond_graph, two_mixer_library):
        scheduler = time_only_scheduler(SchedulerEngine.ILP, two_mixer_library, diamond_graph)
        assert scheduler.schedule(diamond_graph).validate() == []

    def test_baseline_not_slower_than_storage_aware(self, pcr_graph, two_mixer_library):
        """Optimizing time only never lengthens the list schedule by more
        than two transport times (u_c = 10)."""
        baseline = time_only_scheduler(
            SchedulerEngine.LIST, two_mixer_library, pcr_graph
        ).schedule(pcr_graph)
        aware = ListScheduler(two_mixer_library).schedule(pcr_graph)
        assert baseline.makespan <= aware.makespan + 2 * 10


class TestBindingAnalysis:
    def test_utilization_bounds(self, pcr_schedule):
        usage = device_utilization(pcr_schedule)
        assert set(usage) == {"mixer1", "mixer2"}
        for entry in usage.values():
            assert 0.0 <= entry.utilization <= 1.0
            assert entry.busy_time + entry.idle_time == pcr_schedule.makespan

    def test_operation_counts_sum_to_graph(self, pcr_schedule):
        usage = device_utilization(pcr_schedule)
        total_ops = sum(u.num_operations for u in usage.values())
        assert total_ops == len(pcr_schedule.graph.device_operations())

    def test_binding_summary_mentions_every_device(self, pcr_schedule):
        lines = binding_summary(pcr_schedule)
        assert len(lines) == 2
        assert any("mixer1" in line for line in lines)

    def test_operations_per_device_partition(self, pcr_schedule):
        bound = [e.op_id for device_id in pcr_schedule.devices_used()
                 for e in pcr_schedule.device_entries(device_id)]
        assert sorted(bound) == sorted(op.op_id for op in pcr_schedule.graph.device_operations())
