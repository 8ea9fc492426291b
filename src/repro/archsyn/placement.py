"""Device placement on the connection grid.

Placement and routing interact (Section 3.2: "These locations should be
assigned together with the construction of transportation channels"), and the
ILP engine indeed decides them jointly.  The heuristic engine uses the
classic constructive approach below: devices that exchange many fluid samples
are placed close together, which keeps transportation paths short and lowers
both edge usage and conflict probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.archsyn.grid import ConnectionGrid
from repro.scheduling.transport import TransportTask

#: Preferred minimum Manhattan spacing between devices; placing devices on
#: adjacent nodes is allowed but penalized so channel segments remain
#: available around every device for storage.
DEVICE_SPACING = 2


def communication_demands(tasks: Sequence[TransportTask]) -> Dict[Tuple[str, str], int]:
    """Number of transportation tasks between every (unordered) device pair.

    Eviction tasks (source == target) contribute a self-demand that placement
    ignores but the router still realizes with a short round trip.
    """
    demands: Dict[Tuple[str, str], int] = {}
    for task in tasks:
        pair = tuple(sorted((task.source_device, task.target_device)))
        demands[pair] = demands.get(pair, 0) + 1
    return demands


@dataclass
class PlacementResult:
    """Mapping from device ids to grid node ids, plus its wirelength cost."""

    placement: Dict[str, str]
    cost: int


class GreedyPlacer:
    """Deterministic constructive placement with pairwise-swap refinement.

    Algorithm
    ---------
    1. Order devices by total communication volume (most-communicating
       first).
    2. Place the first device near the grid center; place each following
       device on the free node minimizing the weighted Manhattan distance to
       the already placed devices it talks to.
    3. Improve by pairwise swaps (and moves to free nodes) until no swap
       reduces the total weighted wirelength.

    The result is deterministic for a given task list and grid, which keeps
    every experiment reproducible.
    """

    def __init__(self, grid: ConnectionGrid) -> None:
        self.grid = grid

    # ------------------------------------------------------------------ API
    def place(
        self,
        device_ids: Sequence[str],
        tasks: Sequence[TransportTask],
    ) -> PlacementResult:
        if not device_ids:
            raise ValueError("there are no devices to place")
        if len(device_ids) > self.grid.num_nodes():
            raise ValueError(
                f"{len(device_ids)} devices cannot fit a {self.grid.rows}x{self.grid.cols} grid"
            )
        demands = communication_demands(tasks)

        volume: Dict[str, int] = {d: 0 for d in device_ids}
        for (dev_a, dev_b), count in demands.items():
            if dev_a in volume:
                volume[dev_a] += count
            if dev_b in volume and dev_b != dev_a:
                volume[dev_b] += count

        order = sorted(device_ids, key=lambda d: (-volume[d], d))
        placement: Dict[str, str] = {}
        occupied: set = set()

        for device_id in order:
            candidates = [n for n in self.grid.nodes_sorted_by_distance(self.grid.center_node())
                          if n not in occupied]
            # Keep the centre-out candidate order as the tie-break so devices
            # spread from the middle of the grid instead of piling into a
            # corner (which would wall their ports in).
            best_node = candidates[0]
            best_cost = None
            for node in candidates:
                trial = dict(placement)
                trial[device_id] = node
                cost = self._total_cost(trial, demands)
                if best_cost is None or cost < best_cost:
                    best_node, best_cost = node, cost
            placement[device_id] = best_node
            occupied.add(best_node)

        placement = self._refine(placement, demands)
        return PlacementResult(placement=placement, cost=self._total_cost(placement, demands))

    # ------------------------------------------------------------ internals
    def _total_cost(self, placement: Dict[str, str], demands: Dict[Tuple[str, str], int]) -> int:
        """Weighted wirelength plus port-accessibility and spacing penalties.

        Every device must keep free (non-device) neighbouring nodes, otherwise
        no transportation path can reach its ports at all; packing devices
        shoulder to shoulder is also penalized so channel segments remain
        available around each device for on-the-spot caching.
        """
        cost = 0
        for (dev_a, dev_b), count in demands.items():
            if dev_a == dev_b or dev_a not in placement or dev_b not in placement:
                continue
            distance = self.grid.manhattan(placement[dev_a], placement[dev_b])
            cost += count * distance
            if distance < DEVICE_SPACING:
                # Devices sitting shoulder to shoulder wall each other's ports
                # in and leave no channel segments between them for caching;
                # weight this strongly against the (small) wirelength gain.
                cost += 50 * (DEVICE_SPACING - distance)
        occupied = set(placement.values())
        for node in placement.values():
            free_neighbours = sum(1 for n in self.grid.neighbors(node) if n not in occupied)
            if free_neighbours == 0:
                cost += 10_000  # completely walled-in device: never acceptable
            elif free_neighbours == 1:
                cost += 100     # a single port is a routing bottleneck
        return cost

    def _refine(
        self,
        placement: Dict[str, str],
        demands: Dict[Tuple[str, str], int],
    ) -> Dict[str, str]:
        devices = sorted(placement)
        improved = True
        current_cost = self._total_cost(placement, demands)
        while improved:
            improved = False
            # Pairwise swaps.
            for i, dev_a in enumerate(devices):
                for dev_b in devices[i + 1 :]:
                    trial = dict(placement)
                    trial[dev_a], trial[dev_b] = trial[dev_b], trial[dev_a]
                    trial_cost = self._total_cost(trial, demands)
                    if trial_cost < current_cost:
                        placement, current_cost = trial, trial_cost
                        improved = True
            # Moves onto free nodes.
            occupied = set(placement.values())
            free_nodes = [n for n in self.grid.nodes() if n not in occupied]
            for dev in devices:
                for node in free_nodes:
                    trial = dict(placement)
                    trial[dev] = node
                    trial_cost = self._total_cost(trial, demands)
                    if trial_cost < current_cost:
                        placement, current_cost = trial, trial_cost
                        occupied = set(placement.values())
                        free_nodes = [n for n in self.grid.nodes() if n not in occupied]
                        improved = True
                        break
        return placement
