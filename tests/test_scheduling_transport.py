"""Tests of transport-task extraction and storage-requirement analysis."""

import pytest

from repro.devices.device import default_device_library
from repro.scheduling.schedule import Schedule
from repro.scheduling.transport import (
    TransportTask,
    cross_device_gap_sum,
    extract_transport_tasks,
    peak_storage_demand,
    storage_requirements,
    total_storage_time,
)
from repro.devices.channel import FluidSample


@pytest.fixture()
def schedule(diamond_graph, two_mixer_library):
    """Schedule where o1->o3 needs storage and o1->o2 is a same-device handover."""
    sched = Schedule(diamond_graph, two_mixer_library, transport_time=10)
    sched.assign("i1", None, 0, 0)
    sched.assign("i2", None, 0, 0)
    sched.assign("o1", "mixer1", 0, 60)
    sched.assign("o2", "mixer1", 60, 120)     # same device, immediate
    sched.assign("o3", "mixer2", 130, 190)    # cross device, gap 70 > u_c -> storage
    sched.assign("o4", "mixer2", 200, 260)    # o2 -> o4 cross device gap 80, o3 -> o4 same device
    return sched


class TestTransportTaskModel:
    def test_invalid_windows_rejected(self):
        sample = FluidSample("s", "a", "b")
        with pytest.raises(ValueError):
            TransportTask("t", sample, "m1", "m2", depart_time=10, arrive_time=5,
                          needs_storage=False, storage_duration=0)
        with pytest.raises(ValueError):
            TransportTask("t", sample, "m1", "m2", depart_time=0, arrive_time=5,
                          needs_storage=True, storage_duration=-1)

    def test_properties(self):
        sample = FluidSample("s", "a", "b")
        task = TransportTask("t", sample, "m1", "m1", 0, 50, True, 30)
        assert task.window == (0, 50)
        assert task.duration == 50


class TestExtraction:
    def test_same_device_immediate_handover_needs_no_task(self, schedule):
        task_ids = {t.task_id for t in extract_transport_tasks(schedule)}
        assert "o1->o2" not in task_ids

    def test_cross_device_tasks_extracted(self, schedule):
        tasks = {t.task_id: t for t in extract_transport_tasks(schedule)}
        assert "o1->o3" in tasks
        assert tasks["o1->o3"].needs_storage
        assert tasks["o1->o3"].storage_duration == 60
        assert "o2->o4" in tasks
        assert tasks["o2->o4"].source_device == "mixer1"
        assert tasks["o2->o4"].target_device == "mixer2"

    def test_same_device_with_idle_gap_needs_no_task(self, schedule):
        # o3 -> o4 are both on mixer2 with a 10 s gap and no operation between.
        task_ids = {t.task_id for t in extract_transport_tasks(schedule)}
        assert "o3->o4" not in task_ids

    def test_eviction_task_created_when_device_busy_in_between(
        self, diamond_graph, two_mixer_library
    ):
        sched = Schedule(diamond_graph, two_mixer_library, transport_time=10)
        sched.assign("i1", None, 0, 0)
        sched.assign("i2", None, 0, 0)
        sched.assign("o1", "mixer1", 0, 60)
        sched.assign("o2", "mixer1", 60, 120)
        sched.assign("o3", "mixer2", 70, 130)
        # o4 back on mixer1 much later, with o2 having run in between on mixer1:
        # o1's product never waits inside the device, but o2's product must be
        # evicted?  No: o2 -> o4 has nothing in between.  Use o1 -> o4 instead.
        diamond = diamond_graph
        sched.assign("o4", "mixer1", 140, 200)
        tasks = {t.task_id: t for t in extract_transport_tasks(sched)}
        # o2 ran on mixer1 between o1 and nothing consuming o1 on mixer1, so no
        # eviction exists for this graph; confirm only cross-device tasks appear.
        assert all(t.source_device != t.target_device for t in tasks.values())

    def test_tasks_sorted_by_departure(self, schedule):
        tasks = extract_transport_tasks(schedule)
        departures = [t.depart_time for t in tasks]
        assert departures == sorted(departures)


class TestStorageAnalysis:
    def test_storage_requirements_windows(self, schedule):
        requirements = storage_requirements(schedule)
        assert len(requirements) == 2  # o1->o3 and o2->o4
        for req in requirements:
            assert req.duration > 0

    def test_peak_storage_demand(self, schedule):
        # o1->o3 cached roughly [70, 120], o2->o4 cached roughly [130, 190]:
        # they do not overlap, so the peak is 1.
        assert peak_storage_demand(schedule) == 1

    def test_total_storage_time_positive(self, schedule):
        assert total_storage_time(schedule) > 0

    def test_transport_count(self, schedule):
        assert len(extract_transport_tasks(schedule)) == 2

    def test_cross_device_gap_sum(self, schedule):
        # o1->o3 gap 70, o2->o4 gap 80.
        assert cross_device_gap_sum(schedule) == 150

    def test_no_storage_for_tight_schedule(self, diamond_graph, two_mixer_library):
        sched = Schedule(diamond_graph, two_mixer_library, transport_time=10)
        sched.assign("i1", None, 0, 0)
        sched.assign("i2", None, 0, 0)
        sched.assign("o1", "mixer1", 0, 60)
        sched.assign("o2", "mixer1", 60, 120)
        sched.assign("o3", "mixer2", 70, 130)
        sched.assign("o4", "mixer1", 140, 200)
        assert storage_requirements(sched) == []
        assert peak_storage_demand(sched) == 0


class TestScheduleFiguresMemo:
    """``collect_metrics`` derives the schedule's transport figures once per
    schedule object; the memo never reaches a pickle and ``assign`` drops it."""

    @staticmethod
    def synthesized(seed):
        from repro.graph.generators import RandomAssayConfig, random_assay
        from repro.synthesis.config import FlowConfig
        from repro.synthesis.flow import synthesize

        graph = random_assay(RandomAssayConfig(num_operations=14, seed=seed))
        return synthesize(graph, FlowConfig(ilp_operation_limit=0))

    def test_derived_is_computed_once_until_the_next_assign(self, schedule):
        calls = []

        def count(sched):
            calls.append(sched)
            return len(calls)

        assert schedule.derived(count) == 1
        assert schedule.derived(count) == 1
        schedule.assign("o4", "mixer2", 210, 270)
        assert schedule.derived(count) == 2

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_memoized_metrics_equal_fresh_ones(self, seed):
        import pickle

        from repro.synthesis.metrics import collect_metrics

        result = self.synthesized(seed)
        collect_metrics(result)
        memoized = collect_metrics(result)
        fresh = collect_metrics(pickle.loads(pickle.dumps(result)))
        assert memoized == fresh
        schedule = result.schedule
        assert memoized.num_operations == len(result.graph.device_operations())
        assert memoized.num_transport_tasks == len(extract_transport_tasks(schedule))
        assert memoized.num_storage_requirements == len(storage_requirements(schedule))
        assert memoized.peak_storage == peak_storage_demand(schedule)
        assert memoized.total_storage_time == total_storage_time(schedule)
        assert memoized.cross_device_gap == cross_device_gap_sum(schedule)

    def test_envelope_bytes_do_not_change_with_the_memo(self):
        from repro.batch.cache_backends.base import encode_envelope
        from repro.synthesis.metrics import collect_metrics
        from repro.synthesis.pipeline import ScheduleArtifact

        result = self.synthesized(5)
        artifact = ScheduleArtifact(result.schedule, result.scheduler_engine, 0.25)
        before = encode_envelope(artifact)
        collect_metrics(result)
        assert "_derived" in vars(result.schedule)  # the memo exists...
        assert encode_envelope(artifact) == before  # ...and is not pickled

    def test_assign_after_a_metrics_call_invalidates_the_memo(self):
        from repro.synthesis.metrics import collect_metrics

        result = self.synthesized(6)
        schedule = result.schedule
        before = collect_metrics(result)
        # Push the last-finishing operation later: every edge into it waits
        # 100 s longer, so the cross-device gap sum or the storage grows.
        last = max(schedule.entries(), key=lambda e: (e.end, e.op_id))
        schedule.assign(last.op_id, last.device_id, last.start + 100, last.end + 100)
        after = collect_metrics(result)
        assert (after.cross_device_gap, after.total_storage_time) != (
            before.cross_device_gap, before.total_storage_time)
        assert after.cross_device_gap == cross_device_gap_sum(schedule)
        assert after.total_storage_time == total_storage_time(schedule)
