"""Time-interval occupancy bookkeeping for grid nodes and edges.

The router must know, for any candidate path and time window, whether a grid
edge or node is already claimed by another live transportation path or by a
cached fluid sample.  The rules implement the paper's constraint (10):

* an edge is exclusive — transport use and storage use both block it;
* a node is exclusive among *transport* paths, but the endpoints of a segment
  that is merely caching a sample may still be crossed by other paths
  (the ``p'_r`` exception in Fig. 6).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Hashable, List


@dataclass(frozen=True)
class Interval:
    """Closed-open busy interval ``[start, end)`` with a purpose tag.

    ``group`` identifies reservations that are allowed to coexist: transport
    legs carrying volumes split from the *same* producer operation travel
    together physically, so they may share channel resources.  An empty group
    means the reservation is exclusive.
    """

    start: int
    end: int
    purpose: str  # "transport" or "storage"
    owner: str = ""
    group: str = ""

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty interval [{self.start}, {self.end})")
        if self.purpose not in ("transport", "storage"):
            raise ValueError(f"unknown purpose {self.purpose!r}")

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end


class OccupancyTracker:
    """Tracks busy intervals for an arbitrary set of resources.

    Each resource's intervals are kept sorted by start time, so a scan for
    conflicts with ``[start, end)`` stops at the first interval starting at
    or after ``end``.
    """

    def __init__(self) -> None:
        self._intervals: Dict[Hashable, List[Interval]] = {}

    def reserve(
        self,
        resource: Hashable,
        start: int,
        end: int,
        purpose: str,
        owner: str = "",
        group: str = "",
    ) -> Interval:
        """Reserve ``resource`` for ``[start, end)``; raises on double booking.

        Overlapping *transport* reservations belonging to the same non-empty
        ``group`` are allowed (split volumes of one producer moving together).
        """
        interval = Interval(start, end, purpose, owner, group)
        existing = self._intervals.setdefault(resource, [])
        shared_group = group if purpose == "transport" else ""
        for busy in existing:
            if busy.start >= end:
                break  # sorted by start: no later interval overlaps
            if busy.end <= start:
                continue
            if shared_group and busy.group == shared_group and busy.purpose == "transport":
                continue
            raise ValueError(
                f"resource {resource!r}: [{start}, {end}) for {owner or purpose} overlaps "
                f"[{busy.start}, {busy.end}) held by {busy.owner or busy.purpose}"
            )
        bisect.insort(existing, interval, key=lambda iv: iv.start)
        return interval

    def is_free(
        self,
        resource: Hashable,
        start: int,
        end: int,
        ignore_storage: bool = False,
        group: str = "",
    ) -> bool:
        """True when no conflicting interval overlaps ``[start, end)``.

        With ``ignore_storage=True`` only *transport* reservations count —
        this is how node occupancy is checked, implementing the storage-
        endpoint exemption of constraint (10).  Reservations of the same
        non-empty ``group`` never conflict.
        """
        for busy in self._intervals.get(resource, ()):
            if busy.start >= end:
                return True  # sorted by start: no later interval overlaps
            if busy.end <= start:
                continue
            if ignore_storage and busy.purpose == "storage":
                continue
            if group and busy.group == group and busy.purpose == "transport":
                continue  # split volumes of one producer move together
            return False
        return True

    def intervals(self, resource: Hashable) -> List[Interval]:
        return list(self._intervals.get(resource, []))

    def resources(self) -> List[Hashable]:
        return list(self._intervals.keys())

    def total_busy_time(self, resource: Hashable) -> int:
        return sum(iv.end - iv.start for iv in self._intervals.get(resource, []))

    def utilization(self, resource: Hashable, horizon: int) -> float:
        if horizon <= 0:
            return 0.0
        return min(1.0, self.total_busy_time(resource) / horizon)
