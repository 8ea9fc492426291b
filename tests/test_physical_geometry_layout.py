"""Tests of geometry helpers and the layout scaling stage."""

import pytest

from repro.archsyn.grid import edge_id
from repro.physical.geometry import Point, Rect, bounding_box_of_points, polyline_length
from repro.physical.layout import ChannelShape, PhysicalLayout, layout_from_architecture


class TestGeometry:
    def test_point_distance(self):
        assert Point(3, 5).manhattan_distance(Point(0, 0)) == 8

    def test_rect_properties(self):
        rect = Rect(1, 1, 4, 2)
        assert rect.x2 == 5
        assert rect.y2 == 3
        assert rect.area == 8
        assert rect.center == Point(3.0, 2.0)

    def test_rect_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 1)

    def test_rect_intersection(self):
        a = Rect(0, 0, 4, 4)
        b = Rect(3, 3, 4, 4)
        c = Rect(4, 0, 2, 2)
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_bounding_of_rects(self):
        box = Rect.bounding([Rect(0, 0, 1, 1), Rect(4, 4, 2, 2)])
        assert (box.width, box.height) == (6, 6)
        assert Rect.bounding([]) == Rect(0, 0, 0, 0)

    def test_polyline_length(self):
        assert polyline_length([Point(0, 0), Point(0, 5), Point(3, 5)]) == 8
        assert polyline_length([Point(0, 0)]) == 0

    def test_bounding_box_of_points(self):
        box = bounding_box_of_points([Point(1, 1), Point(4, 3)])
        assert (box.width, box.height) == (3, 2)


class TestChannelShape:
    def test_length_includes_bend_extra(self):
        shape = ChannelShape(edge=edge_id("a", "b"), points=[Point(0, 0), Point(3, 0)],
                             min_length=5, is_storage=True)
        assert shape.length == 3
        assert shape.length_deficit() == 2
        shape.extra_length = 2
        assert shape.length_deficit() == 0


class TestLayoutFromArchitecture:
    def test_dimensions_follow_used_bounding_box(self, pcr_architecture):
        layout = layout_from_architecture(pcr_architecture, pitch=5.0)
        width, height = layout.dimensions()
        rows, cols = pcr_architecture.grid.shape
        assert 0 < width <= (cols - 1) * 5
        assert 0 < height <= (rows - 1) * 5
        assert len(layout.channels) == pcr_architecture.num_edges

    def test_storage_channels_marked(self, pcr_architecture):
        layout = layout_from_architecture(pcr_architecture, pitch=5.0, storage_min_length=3.0)
        storage_edges = {edge for edge, _ in pcr_architecture.storage_segments()}
        flagged = {c.edge for c in layout.channels if c.is_storage}
        assert flagged == storage_edges

    def test_empty_architecture_gives_empty_layout(self):
        from repro.archsyn.architecture import ChipArchitecture
        from repro.archsyn.grid import ConnectionGrid

        arch = ChipArchitecture(ConnectionGrid(3, 3), {"m1": "n0_0"})
        layout = layout_from_architecture(arch)
        assert layout.dimensions() == (0, 0)

    def test_validate_reports_no_problem_for_fresh_layout(self, pcr_architecture):
        layout = layout_from_architecture(pcr_architecture, pitch=5.0)
        assert [p for p in layout.validate() if "overlap" in p] == []
