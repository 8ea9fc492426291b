"""Dedicated storage-unit model (the baseline the paper argues against).

A conventional flow-based chip includes one dedicated storage unit: a bank of
``n`` side-by-side channel cells behind a multiplexer (Fig. 1(c)).  Two
properties make it a bottleneck:

* **Port bandwidth** — all store/fetch accesses funnel through the unit's
  port(s); simultaneous accesses must queue, stretching the schedule.
* **Valve overhead** — the multiplexer requires ``2 * ceil(log2 n)`` valves
  per side, plus per-cell isolation valves, all dedicated to storage and
  useless for transport.

This module provides the timing/valve model used by the Fig. 10 comparison
(`repro.storagebaseline` builds the full schedule re-timing on top of it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.devices.channel import FluidSample


def storage_unit_valve_count(num_cells: int, num_ports: int = 1) -> int:
    """Valves needed by a dedicated storage unit with ``num_cells`` cells.

    Model (structure of Fig. 1(c)): each port carries a binary multiplexer of
    ``2 * ceil(log2 num_cells)`` valves (two control lines per address bit),
    and every cell needs one isolation valve at each end (2 per cell) so a
    stored sample is sealed while its neighbours are accessed.
    """
    if num_cells <= 0:
        raise ValueError("a storage unit needs at least one cell")
    if num_ports <= 0:
        raise ValueError("a storage unit needs at least one port")
    mux_bits = max(1, math.ceil(math.log2(num_cells)))
    mux_valves = 2 * mux_bits * num_ports
    cell_valves = 2 * num_cells
    return mux_valves + cell_valves


@dataclass
class StorageAccess:
    """One store or fetch access serviced by the unit."""

    sample: FluidSample
    kind: str  # "store" or "fetch"
    requested_at: int
    started_at: int
    finished_at: int
    cell: Optional[int] = None

    @property
    def queueing_delay(self) -> int:
        return self.started_at - self.requested_at


class DedicatedStorageUnit:
    """Discrete model of the storage unit's port contention and occupancy.

    Accesses are serviced first-come-first-served per port; each access
    occupies a port for ``access_time`` seconds (the time to push a sample
    through the multiplexer into/out of its cell).
    """

    def __init__(self, num_cells: int = 8, num_ports: int = 1, access_time: int = 10) -> None:
        if access_time <= 0:
            raise ValueError("access time must be positive")
        self.num_cells = num_cells
        self.num_ports = num_ports
        self.access_time = access_time
        self._port_free_at: List[int] = [0] * num_ports
        self._cell_contents: List[Optional[FluidSample]] = [None] * num_cells
        self.accesses: List[StorageAccess] = []
        self.peak_occupancy = 0

    # ------------------------------------------------------------------ API
    def occupancy(self) -> int:
        return sum(1 for cell in self._cell_contents if cell is not None)

    def _acquire_port(self, requested_at: int) -> Tuple[int, int]:
        """Return (port index, start time) of the earliest available port."""
        port = min(range(self.num_ports), key=lambda p: max(self._port_free_at[p], requested_at))
        start = max(self._port_free_at[port], requested_at)
        self._port_free_at[port] = start + self.access_time
        return port, start

    def store(self, sample: FluidSample, requested_at: int) -> StorageAccess:
        """Store a sample; returns the access record including queueing delay.

        Raises
        ------
        RuntimeError
            If all cells are occupied — the caller must size the unit to the
            schedule's peak storage demand (as the paper's baseline does).
        """
        free_cells = [i for i, content in enumerate(self._cell_contents) if content is None]
        if not free_cells:
            raise RuntimeError(
                f"dedicated storage unit overflow: all {self.num_cells} cells are occupied"
            )
        port, start = self._acquire_port(requested_at)
        cell = free_cells[0]
        self._cell_contents[cell] = sample
        access = StorageAccess(
            sample=sample,
            kind="store",
            requested_at=requested_at,
            started_at=start,
            finished_at=start + self.access_time,
            cell=cell,
        )
        self.accesses.append(access)
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy())
        return access

    def fetch(self, sample_id: str, requested_at: int) -> StorageAccess:
        """Fetch a previously stored sample.

        Raises
        ------
        KeyError
            If no cell currently holds a sample with ``sample_id``.
        """
        cell = None
        for idx, content in enumerate(self._cell_contents):
            if content is not None and content.sample_id == sample_id:
                cell = idx
                break
        if cell is None:
            raise KeyError(f"sample {sample_id!r} is not in the storage unit")
        sample = self._cell_contents[cell]
        port, start = self._acquire_port(requested_at)
        self._cell_contents[cell] = None
        access = StorageAccess(
            sample=sample,
            kind="fetch",
            requested_at=requested_at,
            started_at=start,
            finished_at=start + self.access_time,
            cell=cell,
        )
        self.accesses.append(access)
        return access

    # ------------------------------------------------------------ statistics
    def total_queueing_delay(self) -> int:
        return sum(a.queueing_delay for a in self.accesses)
