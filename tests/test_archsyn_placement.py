"""Tests of device placement on the connection grid."""

import pytest

from repro.archsyn.grid import ConnectionGrid
from repro.archsyn.placement import GreedyPlacer, communication_demands
from repro.devices.channel import FluidSample
from repro.scheduling.transport import TransportTask


def task(idx, src, dst, depart=0, arrive=10):
    return TransportTask(
        task_id=f"t{idx}",
        sample=FluidSample(f"s{idx}", f"p{idx}", f"c{idx}"),
        source_device=src,
        target_device=dst,
        depart_time=depart,
        arrive_time=arrive,
        needs_storage=False,
        storage_duration=0,
    )


class TestCommunicationDemands:
    def test_pairs_are_unordered(self):
        demands = communication_demands([task(1, "a", "b"), task(2, "b", "a")])
        assert demands[("a", "b")] == 2

    def test_self_demand_recorded(self):
        demands = communication_demands([task(1, "a", "a")])
        assert demands[("a", "a")] == 1


class TestGreedyPlacer:
    def test_no_devices_rejected(self):
        placer = GreedyPlacer(ConnectionGrid(3, 3))
        with pytest.raises(ValueError):
            placer.place([], [])

    def test_too_many_devices_rejected(self):
        placer = GreedyPlacer(ConnectionGrid(2, 2))
        with pytest.raises(ValueError):
            placer.place([f"d{i}" for i in range(5)], [])

    def test_each_device_gets_unique_node(self):
        placer = GreedyPlacer(ConnectionGrid(4, 4))
        result = placer.place(["m1", "m2", "m3"], [task(1, "m1", "m2"), task(2, "m2", "m3")])
        assert len(set(result.placement.values())) == 3
        assert set(result.placement) == {"m1", "m2", "m3"}

    def test_communicating_devices_are_near_but_not_walled_in(self):
        grid = ConnectionGrid(5, 5)
        tasks = [task(i, "m1", "m2") for i in range(5)]
        result = GreedyPlacer(grid).place(["m1", "m2", "m3"], tasks)
        placement = result.placement
        # m1 and m2 talk a lot: they should be within a few grid steps.
        assert grid.manhattan(placement["m1"], placement["m2"]) <= 3
        # No device may have all of its neighbours occupied by other devices.
        occupied = set(placement.values())
        for node in placement.values():
            free = [n for n in grid.neighbors(node) if n not in occupied]
            assert free

    def test_deterministic(self):
        grid = ConnectionGrid(4, 4)
        tasks = [task(1, "m1", "m2"), task(2, "m2", "m3"), task(3, "m1", "m3")]
        first = GreedyPlacer(grid).place(["m1", "m2", "m3"], tasks)
        second = GreedyPlacer(grid).place(["m1", "m2", "m3"], tasks)
        assert first.placement == second.placement

    def test_cost_reported(self):
        grid = ConnectionGrid(4, 4)
        result = GreedyPlacer(grid).place(["m1", "m2"], [task(1, "m1", "m2")])
        assert result.cost >= 1
        assert result.placement["m1"] in grid.nodes()

    def test_placement_without_tasks_still_works(self):
        result = GreedyPlacer(ConnectionGrid(3, 3)).place(["m1", "m2"], [])
        assert len(result.placement) == 2
