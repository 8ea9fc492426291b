"""Tests of the sequencing-graph data model."""

import pytest

from repro.graph.sequencing_graph import Operation, OperationType, SequencingGraph


class TestOperation:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Operation("o1", OperationType.MIX, duration=-1)

    def test_needs_device(self):
        assert Operation("o1", OperationType.MIX, 10).needs_device
        assert not Operation("i1", OperationType.INPUT).needs_device

    def test_hashable_by_id(self):
        assert hash(Operation("o1", OperationType.MIX, 5)) == hash(Operation("o1", OperationType.MIX, 9))


class TestGraphBuilding:
    def test_duplicate_operation_rejected(self, diamond_graph):
        with pytest.raises(ValueError):
            diamond_graph.add_mix("o1", 10)

    def test_edge_to_unknown_operation_rejected(self, diamond_graph):
        with pytest.raises(KeyError):
            diamond_graph.add_edge("o1", "zz")
        with pytest.raises(KeyError):
            diamond_graph.add_edge("zz", "o1")

    def test_self_loop_rejected(self, diamond_graph):
        with pytest.raises(ValueError):
            diamond_graph.add_edge("o1", "o1")

    def test_cycle_rejected(self, diamond_graph):
        with pytest.raises(ValueError):
            diamond_graph.add_edge("o4", "o1")

    def test_parallel_edge_is_idempotent(self, diamond_graph):
        before = len(diamond_graph.edges())
        diamond_graph.add_edge("o1", "o2")
        assert len(diamond_graph.edges()) == before

    def test_contains_and_len(self, diamond_graph):
        assert "o1" in diamond_graph
        assert "zz" not in diamond_graph
        assert len(diamond_graph) == 6


class TestGraphQueries:
    def test_device_operations_excludes_inputs(self, diamond_graph):
        device_ops = {op.op_id for op in diamond_graph.device_operations()}
        assert device_ops == {"o1", "o2", "o3", "o4"}

    def test_predecessors_and_successors(self, diamond_graph):
        assert set(diamond_graph.successors("o1")) == {"o2", "o3"}
        assert set(diamond_graph.predecessors("o4")) == {"o2", "o3"}

    def test_roots_and_sinks(self, diamond_graph):
        assert set(diamond_graph.roots()) == {"i1", "i2"}
        assert [op.op_id for op in diamond_graph.operations()
                if not diamond_graph.successors(op.op_id)] == ["o4"]

    def test_degrees(self, diamond_graph):
        assert diamond_graph.in_degree("o1") == 2
        assert len(diamond_graph.successors("o1")) == 2

    def test_device_edges_exclude_input_edges(self, diamond_graph):
        edges = set(diamond_graph.device_edges())
        assert ("i1", "o1") not in edges
        assert ("o1", "o2") in edges

    def test_topological_order_respects_edges(self, diamond_graph):
        order = diamond_graph.topological_order()
        assert order.index("o1") < order.index("o2")
        assert order.index("o2") < order.index("o4")
        assert order.index("o3") < order.index("o4")

    def test_ancestors(self, diamond_graph):
        assert diamond_graph.ancestors("o4") == {"o1", "o2", "o3", "i1", "i2"}

    def test_copy_is_independent(self, diamond_graph):
        clone = diamond_graph.copy()
        clone.add_mix("o99", 10)
        assert "o99" not in diamond_graph
        assert len(clone.edges()) == len(diamond_graph.edges())

    def test_iter_topological_yields_operations(self, chain_graph):
        ops = [chain_graph.operation(op_id) for op_id in chain_graph.topological_order()]
        assert [op.op_id for op in ops][-1] == "o5"
