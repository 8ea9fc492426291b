"""Tests (including property-based) of the occupancy tracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archsyn.occupancy import Interval, OccupancyTracker


class TestInterval:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 5, "transport")

    def test_unknown_purpose_rejected(self):
        with pytest.raises(ValueError):
            Interval(0, 5, "picnic")

    def test_overlap(self):
        interval = Interval(10, 20, "transport")
        assert interval.overlaps(15, 25)
        assert not interval.overlaps(20, 30)


class TestOccupancyTracker:
    def test_reserve_and_conflict(self):
        tracker = OccupancyTracker()
        tracker.reserve("edge", 0, 10, "transport", owner="t1")
        with pytest.raises(ValueError):
            tracker.reserve("edge", 5, 15, "transport", owner="t2")

    def test_back_to_back_is_fine(self):
        tracker = OccupancyTracker()
        tracker.reserve("edge", 0, 10, "transport")
        tracker.reserve("edge", 10, 20, "storage")
        assert tracker.total_busy_time("edge") == 20

    def test_is_free_checks(self):
        tracker = OccupancyTracker()
        tracker.reserve("edge", 10, 20, "storage")
        assert tracker.is_free("edge", 0, 10)
        assert not tracker.is_free("edge", 15, 16)
        assert tracker.is_free("edge", 15, 16, ignore_storage=True)

    def test_group_sharing(self):
        tracker = OccupancyTracker()
        tracker.reserve("edge", 0, 10, "transport", owner="a", group="o1")
        # Same producer group may overlap.
        tracker.reserve("edge", 0, 10, "transport", owner="b", group="o1")
        assert tracker.is_free("edge", 0, 10, group="o1")
        assert not tracker.is_free("edge", 0, 10, group="o2")
        with pytest.raises(ValueError):
            tracker.reserve("edge", 0, 10, "transport", owner="c", group="o2")

    def test_group_sharing_only_for_transport(self):
        tracker = OccupancyTracker()
        # Without a group, overlapping transports conflict.
        tracker.reserve("edge", 0, 10, "transport", owner="a")
        with pytest.raises(ValueError):
            tracker.reserve("edge", 0, 10, "transport", owner="b")
        # Storage never shares, not even within one group.
        tracker.reserve("cell", 0, 10, "storage", owner="a", group="o1")
        with pytest.raises(ValueError):
            tracker.reserve("cell", 5, 8, "storage", owner="b", group="o1")
        tracker.reserve("leg", 0, 10, "transport", owner="a", group="o1")
        with pytest.raises(ValueError):
            tracker.reserve("leg", 5, 8, "storage", owner="b", group="o1")

    def test_storage_not_shared_within_group(self):
        tracker = OccupancyTracker()
        tracker.reserve("edge", 0, 10, "storage", owner="a", group="o1")
        with pytest.raises(ValueError):
            tracker.reserve("edge", 5, 8, "transport", owner="b", group="o1")

    def test_intervals_and_resources(self):
        tracker = OccupancyTracker()
        tracker.reserve("node", 5, 10, "transport", owner="t1")
        assert tracker.intervals("node")[0].owner == "t1"
        assert len(tracker.intervals("node")) == 1
        assert tracker.resources() == ["node"]

    def test_utilization(self):
        tracker = OccupancyTracker()
        tracker.reserve("edge", 0, 25, "storage")
        assert tracker.utilization("edge", 100) == pytest.approx(0.25)
        assert tracker.utilization("edge", 0) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    requests=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=1, max_value=20),
            st.sampled_from(["transport", "storage"]),
        ),
        max_size=20,
    )
)
def test_tracker_never_admits_exclusive_overlaps(requests):
    """Property: whatever the request sequence, accepted exclusive intervals never overlap."""
    tracker = OccupancyTracker()
    accepted = []
    for start, length, purpose in requests:
        try:
            tracker.reserve("res", start, start + length, purpose)
            accepted.append((start, start + length))
        except ValueError:
            pass
    accepted.sort()
    for (s1, e1), (s2, e2) in zip(accepted, accepted[1:]):
        assert e1 <= s2
