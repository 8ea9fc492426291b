"""Tests of ASAP/critical-path analysis."""

from repro.devices.device import default_device_library
from repro.graph.analysis import (
    analyze,
    asap_times,
    critical_path_length,
    max_parallelism,
)
from repro.graph.library import build_pcr
from repro.scheduling.ilp_scheduler import schedule_lower_bound


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
        summary = analyze(diamond_graph)
        assert summary.num_operations == 6
        assert summary.num_device_operations == 4
        assert summary.total_work == 240
        assert summary.critical_path_length == 180

    def test_certified_lower_bound(self, diamond_graph):
        # One mixer serializes all 240 s of work; two mixers leave the
        # 180 s critical path (interchangeable mixers: no certain transport).
        for num_mixers, bound in ((1, 240), (2, 180)):
            library = default_device_library(num_mixers=num_mixers)
            compatible = {op.op_id: library.devices_for(op.kind)
                          for op in diamond_graph.device_operations()}
            assert schedule_lower_bound(diamond_graph, compatible, 10) == (bound, 0)
