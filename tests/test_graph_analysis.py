"""Tests of ASAP/critical-path analysis.

The program bounds ``t_E`` with :func:`schedule_lower_bound`; the ASAP
times, critical-path length and ASAP width below are the reference
analysis it is checked against, kept here because only tests use it.
"""

from typing import Dict, List, Tuple

from repro.devices.device import default_device_library
from repro.graph.library import build_pcr
from repro.graph.sequencing_graph import SequencingGraph
from repro.scheduling.ilp_scheduler import schedule_lower_bound


def asap_times(graph: SequencingGraph, transport_time: int = 0) -> Dict[str, int]:
    """Earliest start of every operation on unlimited devices, with
    ``transport_time`` on every device-to-device edge."""
    start: Dict[str, int] = {}
    for op in map(graph.operation, graph.topological_order()):
        earliest = 0
        for parent_id in graph.predecessors(op.op_id):
            parent = graph.operation(parent_id)
            hop = transport_time if (parent.needs_device and op.needs_device) else 0
            earliest = max(earliest, start[parent_id] + parent.duration + hop)
        start[op.op_id] = earliest
    return start


def critical_path_length(graph: SequencingGraph, transport_time: int = 0) -> int:
    """The latest ASAP end: a lower bound on any schedule's ``t_E``."""
    start = asap_times(graph, transport_time)
    return max((start[op.op_id] + op.duration for op in graph.operations()), default=0)


def max_parallelism(graph: SequencingGraph) -> int:
    """The most device operations that run at once in the ASAP profile."""
    start = asap_times(graph)
    events: List[Tuple[int, int]] = []
    for op in graph.device_operations():
        events.append((start[op.op_id], 1))
        events.append((start[op.op_id] + max(op.duration, 1), -1))
    best = current = 0
    for _, delta in sorted(events):
        current += delta
        best = max(best, current)
    return best


class TestAsap:
    def test_chain_asap_accumulates_durations(self, chain_graph):
        start = asap_times(chain_graph)
        assert start["o1"] == 0
        assert start["o5"] == 4 * 30

    def test_transport_time_adds_to_asap(self, chain_graph):
        start = asap_times(chain_graph, transport_time=10)
        assert start["o5"] == 4 * 30 + 4 * 10

    def test_diamond_asap(self, diamond_graph):
        start = asap_times(diamond_graph)
        assert start["o2"] == start["o3"] == 60
        assert start["o4"] == 120


class TestCriticalPath:
    def test_chain_critical_path_is_whole_chain(self, chain_graph):
        # Every operation of a chain is on its critical path.
        last = asap_times(chain_graph)["o5"] + chain_graph.operation("o5").duration
        assert critical_path_length(chain_graph) == last == 5 * 30

    def test_length_lower_bounds_pcr(self):
        pcr = build_pcr(mix_time=90)
        assert critical_path_length(pcr) == 270
        assert critical_path_length(pcr, transport_time=10) == 290

    def test_empty_graph_length_zero(self):
        from repro.graph.sequencing_graph import SequencingGraph

        assert critical_path_length(SequencingGraph("empty")) == 0


class TestParallelismAndSummary:
    def test_max_parallelism_diamond(self, diamond_graph):
        assert max_parallelism(diamond_graph) == 2

    def test_max_parallelism_chain(self, chain_graph):
        assert max_parallelism(chain_graph) == 1

    def test_analyze_bundle(self, diamond_graph):
        assert len(diamond_graph) == 6
        assert len(diamond_graph.device_operations()) == 4
        assert sum(op.duration for op in diamond_graph.device_operations()) == 240
        assert critical_path_length(diamond_graph) == 180

    def test_certified_lower_bound(self, diamond_graph):
        # One mixer serializes all 240 s of work; two mixers leave the
        # 180 s critical path (interchangeable mixers: no certain transport).
        for num_mixers, bound in ((1, 240), (2, 180)):
            library = default_device_library(num_mixers=num_mixers)
            compatible = {op.op_id: library.devices_for(op.kind)
                          for op in diamond_graph.device_operations()}
            assert schedule_lower_bound(diamond_graph, compatible, 10) == (bound, 0)
