"""Differential test of transport-task extraction against its rescan reference.

:func:`~repro.scheduling.transport.extract_transport_tasks` builds each
device's start-sorted timeline once and decides every eviction with one
bisection and one comparison against a running maximum of end times.  The
reference below is the plain form it replaced: every same-device edge with
a positive gap rescans its device's whole timeline for an operation, other
than the edge's two endpoints, that overlaps the open window
``(parent.end, child.start)``.  Both must produce the identical task list,
sort order included.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.channel import FluidSample
from repro.devices.device import default_device_library
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.library import assay_by_name
from repro.graph.sequencing_graph import SequencingGraph
from repro.ilp import SolverOptions
from repro.scheduling.ilp_scheduler import IlpScheduler, IlpSchedulerConfig
from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig
from repro.scheduling.schedule import Schedule
from repro.scheduling.transport import TransportTask, extract_transport_tasks
from repro.synthesis.config import FlowConfig
from repro.synthesis.flow import build_library


def busy_between(schedule: Schedule, device_id: str, start: int, end: int,
                 exclude: Iterable[str] = ()) -> bool:
    """True when another operation runs on ``device_id`` inside ``(start, end)``."""
    excluded = set(exclude)
    for entry in schedule.device_entries(device_id):
        if entry.op_id in excluded:
            continue
        if entry.start < end and start < entry.end:
            return True
    return False


def reference_tasks(schedule: Schedule) -> List[TransportTask]:
    """The rescan extraction: the readable statement of the rules."""
    uc = schedule.transport_time
    tasks: List[TransportTask] = []
    for parent_id, child_id in schedule.graph.device_edges():
        if parent_id not in schedule or child_id not in schedule:
            continue
        parent = schedule.entry(parent_id)
        child = schedule.entry(child_id)
        gap = child.start - parent.end
        sample = FluidSample(sample_id=f"{parent_id}->{child_id}",
                             producer=parent_id, consumer=child_id)
        if parent.device_id != child.device_id:
            tasks.append(TransportTask(
                task_id=f"{parent_id}->{child_id}", sample=sample,
                source_device=parent.device_id, target_device=child.device_id,
                depart_time=parent.end, arrive_time=child.start,
                needs_storage=gap > uc, storage_duration=max(0, gap - uc),
            ))
        elif gap > 0 and busy_between(schedule, parent.device_id, parent.end, child.start,
                                      exclude=(parent_id, child_id)):
            tasks.append(TransportTask(
                task_id=f"{parent_id}->{child_id}", sample=sample,
                source_device=parent.device_id, target_device=parent.device_id,
                depart_time=parent.end, arrive_time=child.start,
                needs_storage=True, storage_duration=max(0, gap - min(gap, 2 * uc)),
            ))
    return sorted(tasks, key=lambda t: (t.depart_time, t.task_id))


def assert_matches_reference(schedule: Schedule) -> List[TransportTask]:
    tasks = extract_transport_tasks(schedule)
    assert tasks == reference_tasks(schedule)
    return tasks


@settings(max_examples=80, deadline=None)
@given(
    num_operations=st.integers(min_value=4, max_value=80),
    seed=st.integers(min_value=0, max_value=10_000),
    num_mixers=st.integers(min_value=1, max_value=4),
    storage_aware=st.booleans(),
    transport_time=st.sampled_from([0, 10]),
)
def test_matches_rescan_reference_on_list_schedules(
    num_operations, seed, num_mixers, storage_aware, transport_time
):
    graph = random_assay(RandomAssayConfig(num_operations=num_operations, seed=seed))
    config = ListSchedulerConfig(transport_time=transport_time, storage_aware=storage_aware)
    schedule = ListScheduler(default_device_library(num_mixers=num_mixers), config).schedule(graph)
    assert_matches_reference(schedule)


@pytest.mark.parametrize("assay", ["IVD", "PCR"])
def test_matches_rescan_reference_on_ilp_schedules(assay):
    library = build_library(FlowConfig.paper_defaults_for(assay))
    schedule = IlpScheduler(
        library, IlpSchedulerConfig(solver=SolverOptions(time_limit_s=5))
    ).schedule(assay_by_name(assay))
    assert_matches_reference(schedule)


# ------------------------------------------------------------ hand-built cases

#: (op_id, device_id, start, end); ``p -> c`` is the only same-device edge
#: under test unless a case adds more.
Assignment = Tuple[str, str, int, int]


def hand_built(edges: Sequence[Tuple[str, str]], assignments: Sequence[Assignment]) -> Schedule:
    graph = SequencingGraph(name="hand")
    for op_id, _, _, _ in assignments:
        graph.add_mix(op_id, 1)
    for parent, child in edges:
        graph.add_edge(parent, child)
    schedule = Schedule(graph, default_device_library(num_mixers=2), transport_time=10)
    for op_id, device_id, start, end in assignments:
        schedule.assign(op_id, device_id, start, end)
    return schedule


def _pc(*others: Assignment, parent=(0, 60), child=(100, 160)) -> List[Assignment]:
    return [("p", "mixer1", *parent), ("c", "mixer1", *child), *others]


HAND_BUILT = {
    # The diamond of the schedule tests plus an o1 -> o4 edge: o2 runs on
    # mixer1 between them, o3 runs on mixer2 and does not count.
    "diamond-busy-between": (
        [("o1", "o2"), ("o1", "o3"), ("o2", "o4"), ("o3", "o4"), ("o1", "o4")],
        [("o1", "mixer1", 0, 60), ("o2", "mixer1", 60, 120),
         ("o3", "mixer2", 70, 130), ("o4", "mixer1", 140, 200)],
        {"o1->o4"},
    ),
    "idle-window": ([("p", "c")], _pc(), set()),
    "other-device-in-window": ([("p", "c")], _pc(("x", "mixer2", 70, 90)), set()),
    "inside-window": ([("p", "c")], _pc(("x", "mixer1", 70, 90)), {"p->c"}),
    "spans-window": ([("p", "c")], _pc(("x", "mixer1", 50, 110)), {"p->c"}),
    "ends-at-parent-end": ([("p", "c")], _pc(("x", "mixer1", 20, 60)), set()),
    "starts-at-child-start": ([("p", "c")], _pc(("x", "mixer1", 100, 130)), set()),
    "starts-before-parent-ends-after": ([("p", "c")], _pc(("x", "mixer1", 0, 61)), {"p->c"}),
    "ends-after-child-start": ([("p", "c")], _pc(("x", "mixer1", 99, 200)), {"p->c"}),
    "zero-duration-inside": ([("p", "c")], _pc(("x", "mixer1", 80, 80)), {"p->c"}),
    "zero-duration-at-parent-end": ([("p", "c")], _pc(("x", "mixer1", 60, 60)), set()),
    "zero-duration-at-child-start": ([("p", "c")], _pc(("x", "mixer1", 100, 100)), set()),
    "zero-duration-endpoints": (
        [("p", "c")], _pc(("x", "mixer1", 10, 20), parent=(0, 0), child=(50, 50)), {"p->c"},
    ),
    "zero-gap-with-zero-duration-op": (
        [("p", "c")], _pc(("x", "mixer1", 60, 60), child=(60, 120)), set(),
    ),
    # Overlapping operations: the latest start before the child ends early,
    # an earlier one spans the window.
    "long-op-before-short-op": (
        [("p", "c")], _pc(("x", "mixer1", 5, 200), ("y", "mixer1", 50, 55)), {"p->c"},
    ),
    "later-op-on-device": ([("p", "c")], _pc(("y", "mixer1", 170, 400)), set()),
    "nested-evictions": (
        [("p", "c"), ("q", "r")],
        _pc(("q", "mixer1", 60, 70), ("x", "mixer1", 75, 80), ("r", "mixer1", 90, 95)),
        {"p->c", "q->r"},
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_matches_rescan_reference_on_hand_built_schedules(case):
    edges, assignments, evictions = HAND_BUILT[case]
    tasks = assert_matches_reference(hand_built(edges, assignments))
    assert {t.task_id for t in tasks if t.source_device == t.target_device} == evictions


@settings(max_examples=150, deadline=None)
@given(data=st.data(), num_operations=st.integers(min_value=2, max_value=12),
       seed=st.integers(min_value=0, max_value=1_000))
def test_matches_rescan_reference_on_arbitrary_timelines(data, num_operations, seed):
    """Precedence-respecting timelines with ties, zero durations and overlaps."""
    graph = random_assay(RandomAssayConfig(num_operations=num_operations, seed=seed))
    schedule = Schedule(graph, default_device_library(num_mixers=2), transport_time=10)
    ends = {}
    for op_id in graph.topological_order():
        if not graph.operation(op_id).needs_device:
            schedule.assign(op_id, None, 0, 0)
            ends[op_id] = 0
            continue
        ready = max((ends[p] for p in graph.predecessors(op_id)), default=0)
        start = ready + data.draw(st.sampled_from([0, 0, 5, 10, 30]))
        end = start + data.draw(st.sampled_from([0, 0, 10, 40]))
        schedule.assign(op_id, data.draw(st.sampled_from(["mixer1", "mixer2"])), start, end)
        ends[op_id] = end
    assert_matches_reference(schedule)
