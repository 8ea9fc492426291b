"""Tests of the chip-architecture model and its conflict validator."""

import pytest

from repro.archsyn.architecture import (
    ArchitectureValidationError,
    ChipArchitecture,
    RoutedSubPath,
    RoutedTask,
)
from repro.archsyn.grid import ConnectionGrid, edge_id
from repro.devices.channel import FluidSample
from repro.scheduling.transport import TransportTask


def make_task(task_id="o1->o2", src="m1", dst="m2", depart=0, arrive=10,
              needs_storage=False, producer=None):
    producer = producer or task_id.split("->")[0]
    return TransportTask(
        task_id=task_id,
        sample=FluidSample(task_id, producer, task_id.split("->")[-1]),
        source_device=src,
        target_device=dst,
        depart_time=depart,
        arrive_time=arrive,
        needs_storage=needs_storage,
        storage_duration=10 if needs_storage else 0,
    )


def transport(nodes, start, end):
    edges = tuple(edge_id(a, b) for a, b in zip(nodes, nodes[1:]))
    return RoutedSubPath(tuple(nodes), edges, start, end, "transport")


@pytest.fixture()
def grid():
    return ConnectionGrid(3, 3)


@pytest.fixture()
def placement():
    return {"m1": "n0_0", "m2": "n2_2", "m3": "n0_2"}


class TestSubPathModel:
    def test_transport_shape_enforced(self):
        with pytest.raises(ValueError):
            RoutedSubPath(("a", "b"), (), 0, 5, "transport")

    def test_storage_needs_one_edge(self):
        with pytest.raises(ValueError):
            RoutedSubPath(("a", "b"), (edge_id("a", "b"), edge_id("b", "c")), 0, 5, "storage")

    def test_unknown_purpose(self):
        with pytest.raises(ValueError):
            RoutedSubPath(("a",), (), 0, 5, "parking")


class TestPlacementValidation:
    def test_unknown_node_rejected(self, grid):
        with pytest.raises(ArchitectureValidationError):
            ChipArchitecture(grid, {"m1": "n9_9"})

    def test_shared_node_rejected(self, grid):
        with pytest.raises(ArchitectureValidationError):
            ChipArchitecture(grid, {"m1": "n0_0", "m2": "n0_0"})

    def test_lookup_helpers(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        assert arch.device_node("m1") == "n0_0"


class TestAccounting:
    def test_edges_valves_and_ratios(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        path = transport(["n0_0", "n0_1", "n1_1", "n2_1", "n2_2"], 0, 10)
        arch.add_routed_task(RoutedTask(make_task(), [path]))
        assert arch.num_edges == 4
        # n0_1, n1_1, n2_1 are switches: edges incident to them count valves.
        assert arch.num_valves == 2 + 2 + 2
        assert 0 < arch.edge_ratio() < 1
        assert 0 < arch.valve_ratio() < 1
        assert arch.grid_edge_count() == 12

    def test_storage_segments_listed(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        storage_edge = edge_id("n1_1", "n1_2")
        task = make_task(needs_storage=True, arrive=50)
        subpaths = [
            transport(["n0_0", "n0_1", "n1_1", "n1_2"], 0, 10),
            RoutedSubPath(("n1_1", "n1_2"), (storage_edge,), 10, 40, "storage"),
            transport(["n1_2", "n2_2"], 40, 50),
        ]
        arch.add_routed_task(RoutedTask(task, subpaths))
        assert arch.storage_segments() == [(storage_edge, (10, 40))]
        assert arch.validate() == []


class TestConflictValidation:
    def test_valid_disjoint_paths(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        arch.add_routed_task(RoutedTask(make_task("a->x", "m1", "m2"),
                                        [transport(["n0_0", "n1_0", "n2_0", "n2_1", "n2_2"], 0, 10)]))
        arch.add_routed_task(RoutedTask(make_task("b->y", "m3", "m2"),
                                        [transport(["n0_2", "n1_2", "n2_2"], 0, 10)]))
        assert arch.validate() == []

    def test_edge_sharing_at_same_time_flagged(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        path = ["n0_0", "n0_1", "n0_2"]
        arch.add_routed_task(RoutedTask(make_task("a->x", "m1", "m3"), [transport(path, 0, 10)]))
        arch.add_routed_task(RoutedTask(make_task("b->y", "m1", "m3"), [transport(path, 5, 15)]))
        assert any("share edge" in p for p in arch.validate())

    def test_edge_sharing_at_different_times_is_fine(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        path = ["n0_0", "n0_1", "n0_2"]
        arch.add_routed_task(RoutedTask(make_task("a->x", "m1", "m3", 0, 10), [transport(path, 0, 10)]))
        arch.add_routed_task(RoutedTask(make_task("b->y", "m1", "m3", 20, 30), [transport(path, 20, 30)]))
        assert arch.validate() == []

    def test_same_producer_may_share(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        path = ["n0_0", "n0_1", "n0_2"]
        arch.add_routed_task(RoutedTask(make_task("o1->a", "m1", "m3", producer="o1"),
                                        [transport(path, 0, 10)]))
        arch.add_routed_task(RoutedTask(make_task("o1->b", "m1", "m3", producer="o1"),
                                        [transport(path, 0, 10)]))
        assert arch.validate() == []

    def test_node_crossing_flagged(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        arch.add_routed_task(RoutedTask(make_task("a->x", "m1", "m2"),
                                        [transport(["n0_0", "n0_1", "n1_1", "n2_1", "n2_2"], 0, 10)]))
        arch.add_routed_task(RoutedTask(make_task("b->y", "m3", "m2"),
                                        [transport(["n0_2", "n1_2", "n1_1", "n2_1", "n2_2"], 0, 10)]))
        problems = arch.validate()
        assert any("intersect at node" in p or "share edge" in p for p in problems)

    def test_path_through_foreign_device_flagged(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        # Path from m1 to m2 through m3's node (n0_2).
        arch.add_routed_task(RoutedTask(make_task("a->x", "m1", "m2"),
                                        [transport(["n0_0", "n0_1", "n0_2", "n1_2", "n2_2"], 0, 10)]))
        assert any("passes through device node" in p for p in arch.validate())

    def test_wrong_endpoints_flagged(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        arch.add_routed_task(RoutedTask(make_task("a->x", "m1", "m2"),
                                        [transport(["n0_1", "n1_1", "n2_1", "n2_2"], 0, 10)]))
        assert any("not at source device node" in p for p in arch.validate())

    def test_missing_storage_flagged(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        task = make_task(needs_storage=True, arrive=60)
        arch.add_routed_task(RoutedTask(task, [transport(["n0_0", "n1_0", "n2_0", "n2_1", "n2_2"], 0, 60)]))
        assert any("needs storage" in p for p in arch.validate())

    def test_assert_valid_raises(self, grid, placement):
        arch = ChipArchitecture(grid, placement)
        arch.add_routed_task(RoutedTask(make_task("a->x", "m1", "m2"),
                                        [transport(["n0_1", "n2_2"], 0, 10)]))
        with pytest.raises(ArchitectureValidationError):
            arch.assert_valid()
