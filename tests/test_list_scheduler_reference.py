"""Differential test of the list scheduler against its rescan reference.

:class:`~repro.scheduling.list_scheduler.ListScheduler` keeps its ready
set incrementally and computes each operation's dispatch terms once, when
its last parent finishes.  The reference below is the plain form it
replaced: every dispatch rescans the remaining operations for readiness
and recomputes every (operation, device) term from scratch.  Both must
produce the identical ``(op_id, device_id, start, end)`` entries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.device import DeviceLibrary, default_device_library
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.library import PAPER_ASSAYS
from repro.graph.sequencing_graph import Operation, OperationType, SequencingGraph
from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig

Entry = Tuple[str, Optional[str], int, int]


def reference_schedule(
    library: DeviceLibrary, config: ListSchedulerConfig, graph: SequencingGraph
) -> List[Entry]:
    """The rescan list scheduler: the readable statement of the rules."""
    uc = config.transport_time
    priorities = ListScheduler(library, config)._downstream_priority(graph)
    predecessors = {op.op_id: tuple(graph.predecessors(op.op_id)) for op in graph.operations()}
    device_free = {device.device_id: 0 for device in library}
    finished: Dict[str, Tuple[int, Optional[str]]] = {}
    remaining = {op.op_id for op in graph.device_operations()}
    entries: List[Entry] = []

    for op in graph.input_operations():
        entries.append((op.op_id, None, 0, op.duration))
        finished[op.op_id] = (op.duration, None)

    def freshness(op_id: str) -> int:
        ends = [finished[p][0] for p in predecessors[op_id] if finished[p][1] is not None]
        return max(ends, default=0)

    while remaining:
        ready = [op_id for op_id in remaining
                 if all(parent in finished for parent in predecessors[op_id])]
        if not ready:
            raise RuntimeError(
                f"no ready operation among {sorted(remaining)}; the graph may be malformed"
            )
        options = []
        for op_id in ready:
            op = graph.operation(op_id)
            candidates = library.devices_for(op.kind)
            if not candidates:
                raise RuntimeError(f"no device can execute operation {op_id!r} ({op.kind.value})")
            parent_devices = {
                finished[p][1] for p in predecessors[op_id] if finished[p][1] is not None
            }
            for device in candidates:
                earliest = device_free[device.device_id]
                for parent in predecessors[op_id]:
                    parent_end, parent_device = finished[parent]
                    hop = 0 if (parent_device is None or parent_device == device.device_id) else uc
                    earliest = max(earliest, parent_end + hop)
                locality = 0 if device.device_id in parent_devices else 1
                options.append((earliest, locality, -priorities[op_id], -freshness(op_id),
                                op_id, device.device_id))
        if not config.storage_aware:
            best = min(options, key=lambda o: (o[0], o[2], o[4], o[5]))
        else:
            t_star = min(option[0] for option in options)
            window = [o for o in options if o[0] <= t_star + uc]
            best = min(window, key=lambda o: (o[1], o[0], o[2], o[3], o[4], o[5]))
        start, _, _, _, op_id, device_id = best
        end = start + library.device(device_id).execution_time(graph.operation(op_id).duration)
        entries.append((op_id, device_id, start, end))
        device_free[device_id] = end
        finished[op_id] = (end, device_id)
        remaining.remove(op_id)
    return sorted(entries, key=lambda e: (e[2], e[0]))


def scheduled(library: DeviceLibrary, config: ListSchedulerConfig,
              graph: SequencingGraph) -> List[Entry]:
    schedule = ListScheduler(library, config).schedule(graph)
    return [(e.op_id, e.device_id, e.start, e.end) for e in schedule.entries()]


@settings(max_examples=60, deadline=None)
@given(
    num_operations=st.integers(min_value=5, max_value=150),
    seed=st.integers(min_value=0, max_value=10_000),
    num_mixers=st.integers(min_value=2, max_value=4),
    storage_aware=st.booleans(),
    transport_time=st.sampled_from([0, 10]),
)
def test_matches_rescan_reference_on_random_assays(
    num_operations, seed, num_mixers, storage_aware, transport_time
):
    graph = random_assay(RandomAssayConfig(num_operations=num_operations, seed=seed))
    library = default_device_library(num_mixers=num_mixers)
    config = ListSchedulerConfig(transport_time=transport_time, storage_aware=storage_aware)
    assert scheduled(library, config, graph) == reference_schedule(library, config, graph)


@pytest.mark.parametrize("storage_aware", [True, False])
@pytest.mark.parametrize("assay", sorted(PAPER_ASSAYS))
def test_matches_rescan_reference_on_paper_assays(assay, storage_aware):
    graph = PAPER_ASSAYS[assay]()
    library = default_device_library(num_mixers=3, num_detectors=2)
    config = ListSchedulerConfig(storage_aware=storage_aware)
    assert scheduled(library, config, graph) == reference_schedule(library, config, graph)


def _blocked_graph() -> SequencingGraph:
    """A mix fed by an output node, which never finishes: nothing gets ready."""
    graph = SequencingGraph(name="blocked")
    graph.add_input("i1")
    graph.add_operation(Operation("out", OperationType.OUTPUT))
    graph.add_mix("o1", 60)
    graph.add_mix("o2", 60)
    graph.add_edge("i1", "out")
    graph.add_edge("out", "o1")
    graph.add_edge("o1", "o2")
    return graph


@pytest.mark.parametrize("run", [scheduled, reference_schedule], ids=["scheduler", "reference"])
def test_no_ready_operation_raises(run):
    with pytest.raises(RuntimeError, match=r"no ready operation among \['o1', 'o2'\]"):
        run(default_device_library(num_mixers=2), ListSchedulerConfig(), _blocked_graph())


@pytest.mark.parametrize("run", [scheduled, reference_schedule], ids=["scheduler", "reference"])
def test_no_device_can_execute_raises(run):
    graph = SequencingGraph(name="detect")
    graph.add_input("i1")
    graph.add_mix("o1", 60)
    graph.add_operation(Operation("d1", OperationType.DETECT, 30))
    graph.add_edge("i1", "o1")
    graph.add_edge("o1", "d1")
    with pytest.raises(RuntimeError, match=r"no device can execute operation 'd1' \(detect\)"):
        run(default_device_library(num_mixers=2), ListSchedulerConfig(), graph)
