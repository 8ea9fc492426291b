"""Tests (including property-based) of the heuristic synthesizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archsyn.router import HeuristicSynthesizer, SynthesisConfig, SynthesisError
from repro.devices.channel import FluidSample
from repro.devices.device import default_device_library
from repro.obs import TraceRecorder, install_recorder
from repro.obs.trace import uninstall_recorder
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.scheduling.list_scheduler import ListScheduler
from repro.scheduling.transport import TransportTask, extract_transport_tasks


def direct_task(task_id, src, dst, depart, arrive):
    return TransportTask(
        task_id=task_id,
        sample=FluidSample(task_id, task_id.split("->")[0], task_id.split("->")[-1]),
        source_device=src,
        target_device=dst,
        depart_time=depart,
        arrive_time=arrive,
        needs_storage=False,
        storage_duration=0,
    )


def storage_task(task_id, src, dst, depart, arrive):
    return TransportTask(
        task_id=task_id,
        sample=FluidSample(task_id, task_id.split("->")[0], task_id.split("->")[-1]),
        source_device=src,
        target_device=dst,
        depart_time=depart,
        arrive_time=arrive,
        needs_storage=True,
        storage_duration=max(1, arrive - depart - 10),
    )


class TestSynthesizeTasks:
    def test_single_direct_task(self):
        synthesizer = HeuristicSynthesizer(SynthesisConfig(grid_rows=3, grid_cols=3))
        arch = synthesizer.synthesize_tasks([direct_task("a->b", "m1", "m2", 0, 10)], ["m1", "m2"])
        assert arch.validate() == []
        assert arch.num_edges >= 1
        assert len(arch.routed_tasks) == 1

    def test_storage_task_gets_cache_segment(self):
        synthesizer = HeuristicSynthesizer(SynthesisConfig(grid_rows=4, grid_cols=4))
        arch = synthesizer.synthesize_tasks([storage_task("a->b", "m1", "m2", 0, 100)], ["m1", "m2"])
        assert arch.validate() == []
        routed = arch.routed_tasks[0]
        assert routed.storage_edge is not None
        window = routed.storage_window
        assert window is not None and window[1] - window[0] >= 1
        assert len(routed.subpaths) == 3

    def test_eviction_round_trip(self):
        synthesizer = HeuristicSynthesizer(SynthesisConfig(grid_rows=3, grid_cols=3))
        arch = synthesizer.synthesize_tasks([storage_task("a->b", "m1", "m1", 0, 60)], ["m1", "m2"])
        assert arch.validate() == []
        routed = arch.routed_tasks[0]
        assert routed.task.source_device == routed.task.target_device
        assert routed.storage_edge is not None

    def test_simultaneous_tasks_use_disjoint_resources(self):
        synthesizer = HeuristicSynthesizer(SynthesisConfig(grid_rows=4, grid_cols=4))
        tasks = [
            direct_task("a->x", "m1", "m2", 0, 10),
            direct_task("b->y", "m3", "m4", 0, 10),
        ]
        arch = synthesizer.synthesize_tasks(tasks, ["m1", "m2", "m3", "m4"])
        assert arch.validate() == []
        edges_a = arch.routed_tasks[0].all_edges()
        edges_b = arch.routed_tasks[1].all_edges()
        assert not (edges_a & edges_b)

    def test_too_many_devices_for_grid(self):
        synthesizer = HeuristicSynthesizer(SynthesisConfig(grid_rows=2, grid_cols=2, auto_expand_grid=False))
        with pytest.raises(SynthesisError):
            synthesizer.synthesize_tasks([], [f"m{i}" for i in range(5)])

    def test_auto_expand_grows_grid(self):
        synthesizer = HeuristicSynthesizer(
            SynthesisConfig(grid_rows=2, grid_cols=2, auto_expand_grid=True, max_grid_dim=4)
        )
        arch = synthesizer.synthesize_tasks(
            [direct_task("a->b", "m1", "m2", 0, 10)], ["m1", "m2", "m3", "m4", "m5"]
        )
        assert arch.grid.rows > 2

    def test_grid_attempts_emit_place_and_route_spans(self):
        synthesizer = HeuristicSynthesizer(
            SynthesisConfig(grid_rows=2, grid_cols=2, auto_expand_grid=True, max_grid_dim=4)
        )
        recorder = TraceRecorder()
        token = install_recorder(recorder)
        try:
            synthesizer.synthesize_tasks(
                [direct_task("a->b", "m1", "m2", 0, 10)], ["m1", "m2", "m3", "m4", "m5"]
            )
            with pytest.raises(SynthesisError):
                HeuristicSynthesizer(
                    SynthesisConfig(grid_rows=3, grid_cols=3, auto_expand_grid=False)
                ).synthesize_tasks([storage_task("a->b", "m1", "m1", 0, 2)], ["m1"])
        finally:
            uninstall_recorder(token)
        attempts = [
            (s.name, s.attributes["rows"], s.attributes["cols"], s.attributes["ok"])
            for s in sorted(recorder.spans(), key=lambda s: s.start_s)
        ]
        # Five devices do not fit 2x2, so that attempt never routes.
        assert attempts == [
            ("archsyn:place", 2, 2, False),
            ("archsyn:place", 3, 3, True),
            ("archsyn:route", 3, 3, True),
            ("archsyn:place", 3, 3, True),
            ("archsyn:route", 3, 3, False),
        ]

    def test_short_eviction_gap_rejected(self):
        synthesizer = HeuristicSynthesizer(SynthesisConfig(grid_rows=3, grid_cols=3, auto_expand_grid=False))
        with pytest.raises(SynthesisError):
            synthesizer.synthesize_tasks([storage_task("a->b", "m1", "m1", 0, 2)], ["m1"])


class TestSynthesizeFromSchedule:
    def test_pcr_architecture_valid(self, pcr_schedule, pcr_architecture):
        assert pcr_architecture.validate() == []
        tasks = extract_transport_tasks(pcr_schedule)
        assert len(pcr_architecture.routed_tasks) == len(tasks)

    def test_every_storage_task_is_cached(self, pcr_schedule, pcr_architecture):
        for routed in pcr_architecture.routed_tasks:
            if routed.task.needs_storage:
                assert routed.storage_edge is not None

    def test_resource_counts_positive(self, pcr_architecture):
        assert pcr_architecture.num_edges > 0
        assert pcr_architecture.num_valves > 0
        assert pcr_architecture.edge_ratio() <= 1.0

    def test_all_devices_placed(self, pcr_schedule, pcr_architecture):
        assert set(pcr_architecture.placement) >= set(pcr_schedule.devices_used())


@settings(max_examples=12, deadline=None)
@given(
    num_operations=st.integers(min_value=2, max_value=18),
    seed=st.integers(min_value=0, max_value=500),
    num_mixers=st.integers(min_value=2, max_value=4),
)
def test_synthesis_of_random_assays_is_conflict_free(num_operations, seed, num_mixers):
    """Property: schedule -> architecture always passes the conflict validator."""
    graph = random_assay(RandomAssayConfig(num_operations=num_operations, seed=seed))
    library = default_device_library(num_mixers=num_mixers)
    schedule = ListScheduler(library).schedule(graph)
    synthesizer = HeuristicSynthesizer(SynthesisConfig(grid_rows=4, grid_cols=4))
    architecture = synthesizer.synthesize(schedule)
    assert architecture.validate() == []
    # Objective (11)-(12): only edges used by some path are kept.
    used = architecture.used_edges()
    for routed in architecture.routed_tasks:
        assert routed.all_edges() <= used
