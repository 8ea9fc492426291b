"""Tests of the connection grid."""

import pytest

from repro.archsyn.grid import ConnectionGrid, GridNode, edge_id


class TestGridNode:
    def test_node_id_format(self):
        assert GridNode(2, 3).node_id == "n2_3"

    def test_manhattan_distance(self):
        assert GridNode(0, 0).manhattan_distance(GridNode(2, 3)) == 5


class TestEdgeId:
    def test_undirected(self):
        assert edge_id("a", "b") == edge_id("b", "a")

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            edge_id("a", "a")


class TestConnectionGrid:
    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ConnectionGrid(0, 3)

    def test_node_and_edge_counts(self):
        grid = ConnectionGrid(4, 4)
        assert grid.num_nodes() == 16
        assert grid.num_edges() == 24
        assert len(grid.edges()) == 24
        grid5 = ConnectionGrid(5, 5)
        assert grid5.num_edges() == 40

    def test_rectangular_grid(self):
        grid = ConnectionGrid(2, 5)
        assert grid.num_nodes() == 10
        assert grid.num_edges() == 2 * 4 + 5 * 1

    def test_neighbors_interior_and_corner(self):
        grid = ConnectionGrid(4, 4)
        assert len(grid.neighbors("n1_1")) == 4
        assert len(grid.neighbors("n0_0")) == 2

    def test_has_edge(self):
        grid = ConnectionGrid(3, 3)
        assert grid.has_edge("n0_0", "n0_1")
        assert not grid.has_edge("n0_0", "n1_1")

    def test_incident_edges(self):
        grid = ConnectionGrid(3, 3)
        incident = grid.incident_edges("n1_1")
        assert len(incident) == 4
        assert edge_id("n1_1", "n0_1") in incident

    def test_node_lookup(self):
        grid = ConnectionGrid(3, 3)
        assert "n1_2" in grid
        assert "n9_9" not in grid

    def test_manhattan_between_ids(self):
        grid = ConnectionGrid(4, 4)
        assert grid.manhattan("n0_0", "n3_3") == 6

    def test_center_node(self):
        assert ConnectionGrid(5, 5).center_node() == "n2_2"

    def test_nodes_sorted_by_distance(self):
        grid = ConnectionGrid(3, 3)
        ordered = grid.nodes_sorted_by_distance("n0_0")
        assert ordered[0] == "n0_0"
        distances = [grid.manhattan("n0_0", n) for n in ordered]
        assert distances == sorted(distances)

    def test_edge_endpoints_sorted(self):
        grid = ConnectionGrid(3, 3)
        a, b = grid.edge_endpoints(edge_id("n1_1", "n0_1"))
        assert (a, b) == ("n0_1", "n1_1")
