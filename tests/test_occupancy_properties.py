"""Property test of the occupancy tracker's early-exit scan.

``OccupancyTracker.is_free`` walks a resource's intervals in start order
and stops at the first one starting at or after the query's end.  That is
only sound while the intervals stay sorted by start, so the property
checks the order itself as well as every answer against a brute-force
scan of all accepted reservations.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archsyn.occupancy import Interval, OccupancyTracker

RESOURCES = ("e1", "e2")
GROUPS = ("", "g1", "g2")

reservation = st.tuples(
    st.sampled_from(RESOURCES),
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=1, max_value=25),
    st.sampled_from(["transport", "storage"]),
    st.sampled_from(GROUPS),
)
query = st.tuples(
    st.sampled_from(RESOURCES),
    st.integers(min_value=-5, max_value=110),
    # Lengths down to -3: the scan must also agree on empty windows.
    st.integers(min_value=-3, max_value=30),
    st.booleans(),
    st.sampled_from(GROUPS),
)


def brute_force_free(intervals, start, end, ignore_storage, group):
    """The plain statement of ``is_free``: no conflicting overlap at all."""
    for busy in intervals:
        if not (busy.start < end and start < busy.end):
            continue
        if ignore_storage and busy.purpose == "storage":
            continue
        if group and busy.group == group and busy.purpose == "transport":
            continue
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(reservations=st.lists(reservation, max_size=30), queries=st.lists(query, max_size=30))
def test_is_free_matches_brute_force_and_order_holds(reservations, queries):
    tracker = OccupancyTracker()
    accepted = {resource: [] for resource in RESOURCES}
    for resource, start, length, purpose, group in reservations:
        end = start + length
        # A reservation is accepted exactly when the brute-force scan finds
        # its window free (transport legs of the same group may share).
        sharing_group = group if purpose == "transport" else ""
        expected = brute_force_free(accepted[resource], start, end, False, sharing_group)
        try:
            tracker.reserve(resource, start, end, purpose, group=group)
        except ValueError:
            assert not expected
        else:
            assert expected
            accepted[resource].append(Interval(start, end, purpose, group=group))

    for resource in RESOURCES:
        kept = tracker.intervals(resource)
        starts = [iv.start for iv in kept]
        assert starts == sorted(starts)
        # Equal starts keep their insertion order (a stable sort of the
        # accepted sequence).
        assert [(iv.start, iv.end, iv.purpose, iv.group) for iv in kept] == [
            (iv.start, iv.end, iv.purpose, iv.group)
            for iv in sorted(accepted[resource], key=lambda iv: iv.start)
        ]

    for resource, start, length, ignore_storage, group in queries:
        end = start + length
        assert tracker.is_free(resource, start, end, ignore_storage=ignore_storage, group=group) \
            == brute_force_free(accepted[resource], start, end, ignore_storage, group)


def test_unknown_resource_is_free():
    assert OccupancyTracker().is_free("nowhere", 0, 10)
