"""Static analysis of sequencing graphs.

ASAP times and the critical-path length give lower bounds on the assay
completion time ``t_E``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.graph.sequencing_graph import SequencingGraph


def asap_times(graph: SequencingGraph, transport_time: int = 0) -> Dict[str, int]:
    """Earliest possible start time of every operation (infinite devices).

    ``transport_time`` is added on every device-to-device edge, matching the
    paper's constant pure transport time ``u_c``.
    """
    start: Dict[str, int] = {}
    for op in graph.iter_topological():
        earliest = 0
        for parent_id in graph.predecessors(op.op_id):
            parent = graph.operation(parent_id)
            hop = transport_time if (parent.needs_device and op.needs_device) else 0
            earliest = max(earliest, start[parent_id] + parent.duration + hop)
        start[op.op_id] = earliest
    return start


def critical_path_length(graph: SequencingGraph, transport_time: int = 0) -> int:
    """Length of the critical path — a lower bound on any schedule's t_E."""
    start = asap_times(graph, transport_time)
    return max(
        (start[op.op_id] + op.duration for op in graph.operations()),
        default=0,
    )


def max_parallelism(graph: SequencingGraph) -> int:
    """Maximum number of device operations runnable concurrently (ASAP profile).

    This is an optimistic estimate used to sanity-check device counts: with
    fewer devices than the assay ever *needs* concurrently the schedule just
    serializes further, never becomes infeasible.
    """
    start = asap_times(graph)
    events: List[Tuple[int, int]] = []
    for op in graph.device_operations():
        s = start[op.op_id]
        events.append((s, 1))
        events.append((s + max(op.duration, 1), -1))
    events.sort()
    best = current = 0
    for _, delta in events:
        current += delta
        best = max(best, current)
    return best


@dataclass
class GraphAnalysis:
    """Bundle of the standard graph metrics."""

    name: str
    num_operations: int
    num_device_operations: int
    num_edges: int
    critical_path_length: int
    max_parallelism: int
    total_work: int


def analyze(graph: SequencingGraph, transport_time: int = 0) -> GraphAnalysis:
    """Compute the :class:`GraphAnalysis` summary for a graph."""
    device_ops = graph.device_operations()
    return GraphAnalysis(
        name=graph.name,
        num_operations=len(graph),
        num_device_operations=len(device_ops),
        num_edges=len(graph.edges()),
        critical_path_length=critical_path_length(graph, transport_time),
        max_parallelism=max_parallelism(graph),
        total_work=sum(op.duration for op in device_ops),
    )
