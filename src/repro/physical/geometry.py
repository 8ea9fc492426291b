"""Small geometry helpers for the layout stage."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Point:
    """A point on the layout canvas (layout units)."""

    x: float
    y: float

    def manhattan_distance(self, other: "Point") -> float:
        return abs(self.x - other.x) + abs(self.y - other.y)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle given by its lower-left corner and size."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width < 0 or self.height < 0:
            raise ValueError("rectangle dimensions must be non-negative")

    @property
    def x2(self) -> float:
        return self.x + self.width

    @property
    def y2(self) -> float:
        return self.y + self.height

    @property
    def center(self) -> Point:
        return Point(self.x + self.width / 2, self.y + self.height / 2)

    @property
    def area(self) -> float:
        return self.width * self.height

    def intersects(self, other: "Rect") -> bool:
        return self.x < other.x2 and other.x < self.x2 and self.y < other.y2 and other.y < self.y2

    @staticmethod
    def bounding(rects: Iterable["Rect"]) -> "Rect":
        rects = list(rects)
        if not rects:
            return Rect(0, 0, 0, 0)
        x1 = min(r.x for r in rects)
        y1 = min(r.y for r in rects)
        x2 = max(r.x2 for r in rects)
        y2 = max(r.y2 for r in rects)
        return Rect(x1, y1, x2 - x1, y2 - y1)


def polyline_length(points: Sequence[Point]) -> float:
    """Total Manhattan length of a polyline."""
    return sum(a.manhattan_distance(b) for a, b in zip(points, points[1:]))


def bounding_box_of_points(points: Iterable[Point]) -> Rect:
    points = list(points)
    if not points:
        return Rect(0, 0, 0, 0)
    x1 = min(p.x for p in points)
    y1 = min(p.y for p in points)
    x2 = max(p.x for p in points)
    y2 = max(p.y for p in points)
    return Rect(x1, y1, x2 - x1, y2 - y1)
