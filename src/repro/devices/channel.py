"""Flow-channel segments and the fluid samples they carry.

A channel segment is the piece of flow channel between two neighbouring grid
nodes (switches or devices).  The paper's central idea is that such a segment
can *temporarily become storage*: when a fluid sample is parked in it and the
valves at both ends are closed, the segment acts as a distributed storage
cell; when the sample moves on, the segment reverts to a transport resource.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class FluidSample:
    """An intermediate fluid produced by one operation and consumed by another.

    Attributes
    ----------
    sample_id:
        Unique identifier, conventionally ``"<producer>-><consumer>"``.
    producer / consumer:
        Operation ids from the sequencing graph.
    volume_units:
        Length of channel (in layout units) needed to hold the sample; used
        by the physical design stage to size storage segments.
    """

    sample_id: str
    producer: str
    consumer: str
    volume_units: int = 3

    def __post_init__(self) -> None:
        if self.volume_units <= 0:
            raise ValueError("a fluid sample must occupy at least one channel unit")


@dataclass
class ChannelInterval:
    """A closed-open time interval during which the segment is busy."""

    start: int
    end: int
    purpose: str  # "transport" or "storage"
    sample: Optional[FluidSample] = None

    def overlaps(self, other: "ChannelInterval") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass
class ChannelSegment:
    """A segment of flow channel between two grid nodes.

    The segment tracks its reservations over time so conflict checking and
    the Fig. 11 execution snapshots can be derived after synthesis.
    """

    segment_id: str
    endpoints: Tuple[str, str]
    length_units: int = 1
    reservations: List[ChannelInterval] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.length_units <= 0:
            raise ValueError("channel segment length must be positive")
        if self.endpoints[0] == self.endpoints[1]:
            raise ValueError("channel segment endpoints must differ")

    # --------------------------------------------------------- reservations
    def reserve(self, start: int, end: int, purpose: str, sample: Optional[FluidSample] = None) -> ChannelInterval:
        """Reserve the segment for ``[start, end)``.

        Overlapping *transport* reservations are tolerated only when both
        samples stem from the same producer operation (split volumes moving
        together); any other overlap is a conflict.

        Raises
        ------
        ValueError
            If the new interval conflicts with an existing reservation (which
            a valid synthesis result must never produce), or the interval is
            empty/negative.
        """
        if end <= start:
            raise ValueError(f"segment {self.segment_id}: empty reservation [{start}, {end})")
        if purpose not in ("transport", "storage"):
            raise ValueError(f"unknown reservation purpose {purpose!r}")
        interval = ChannelInterval(start, end, purpose, sample)
        for existing in self.reservations:
            if not existing.overlaps(interval):
                continue
            same_producer = (
                purpose == "transport"
                and existing.purpose == "transport"
                and sample is not None
                and existing.sample is not None
                and existing.sample.producer == sample.producer
            )
            if same_producer:
                continue
            raise ValueError(
                f"segment {self.segment_id}: reservation [{start}, {end}) for {purpose} "
                f"overlaps existing [{existing.start}, {existing.end}) for {existing.purpose}"
            )
        self.reservations.append(interval)
        self.reservations.sort(key=lambda iv: iv.start)
        return interval

    def is_free(self, start: int, end: int) -> bool:
        """True when ``[start, end)`` does not clash with any reservation."""
        probe = ChannelInterval(start, end, "transport")
        return not any(existing.overlaps(probe) for existing in self.reservations)

    # ------------------------------------------------------------ accounting
    def busy_time(self) -> int:
        """Total reserved time — used for channel-utilization metrics."""
        return sum(iv.end - iv.start for iv in self.reservations)

    def storage_time(self) -> int:
        return sum(iv.end - iv.start for iv in self.reservations if iv.purpose == "storage")
