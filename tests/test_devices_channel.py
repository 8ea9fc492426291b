"""Tests of channel segments and fluid samples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.channel import ChannelSegment, FluidSample


def make_segment() -> ChannelSegment:
    return ChannelSegment(segment_id="s1", endpoints=("a", "b"), length_units=3)


class TestFluidSample:
    def test_zero_volume_rejected(self):
        with pytest.raises(ValueError):
            FluidSample("s", "o1", "o2", volume_units=0)

    def test_frozen(self):
        sample = FluidSample("s", "o1", "o2")
        with pytest.raises(Exception):
            sample.producer = "o9"  # type: ignore[misc]


class TestChannelSegment:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ChannelSegment("s", ("a", "a"))
        with pytest.raises(ValueError):
            ChannelSegment("s", ("a", "b"), length_units=0)

    def test_reserve_records_the_interval(self):
        segment = make_segment()
        sample = FluidSample("x", "o1", "o2")
        segment.reserve(10, 20, "storage", sample)
        assert [(iv.start, iv.end, iv.purpose, iv.sample) for iv in segment.reservations] == [
            (10, 20, "storage", sample)]

    def test_overlapping_reservations_rejected(self):
        segment = make_segment()
        segment.reserve(0, 10, "transport", FluidSample("x", "o1", "o2"))
        with pytest.raises(ValueError):
            segment.reserve(5, 15, "transport", FluidSample("y", "o3", "o4"))

    def test_same_producer_transports_may_overlap(self):
        segment = make_segment()
        segment.reserve(0, 10, "transport", FluidSample("a", "o1", "o2"))
        segment.reserve(0, 10, "transport", FluidSample("b", "o1", "o3"))
        assert len(segment.reservations) == 2

    def test_storage_never_shares(self):
        segment = make_segment()
        segment.reserve(0, 10, "storage", FluidSample("a", "o1", "o2"))
        with pytest.raises(ValueError):
            segment.reserve(5, 8, "transport", FluidSample("b", "o1", "o3"))

    def test_empty_interval_rejected(self):
        segment = make_segment()
        with pytest.raises(ValueError):
            segment.reserve(10, 10, "transport")

    def test_unknown_purpose_rejected(self):
        segment = make_segment()
        with pytest.raises(ValueError):
            segment.reserve(0, 5, "parking")

    def test_is_free(self):
        segment = make_segment()
        segment.reserve(10, 20, "transport")
        assert segment.is_free(0, 10)
        assert segment.is_free(20, 30)
        assert not segment.is_free(15, 25)

    def test_accounting(self):
        segment = make_segment()
        segment.reserve(0, 10, "transport")
        segment.reserve(20, 50, "storage")
        assert segment.busy_time() == 40
        assert segment.storage_time() == 30


@settings(max_examples=30, deadline=None)
@given(
    intervals=st.lists(
        st.tuples(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=30)),
        min_size=1,
        max_size=15,
    )
)
def test_busy_time_never_exceeds_span_property(intervals):
    """Property: accepted reservations never overlap, so busy time <= span."""
    segment = ChannelSegment("s", ("a", "b"))
    accepted = []
    for start, length in intervals:
        try:
            segment.reserve(start, start + length, "storage")
            accepted.append((start, start + length))
        except ValueError:
            pass
    if not accepted:
        return
    span_start = min(s for s, _ in accepted)
    span_end = max(e for _, e in accepted)
    assert segment.busy_time() <= span_end - span_start
    # Pairwise disjoint.
    accepted.sort()
    for (s1, e1), (s2, e2) in zip(accepted, accepted[1:]):
        assert e1 <= s2
