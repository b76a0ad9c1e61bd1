"""Property-based tests for cached path lengths.

:class:`~repro.geometry.Path` sums its segment lengths once at
construction.  The references below recompute everything per call
from fresh :class:`~repro.geometry.Segment` objects, the way the path
did before it cached anything; the cached path must agree with them
bit for bit, not merely approximately.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Path, Position, Segment


def reference_length(waypoints) -> float:
    return sum(Segment(a, b).length for a, b in zip(waypoints, waypoints[1:]))


def reference_position_at(waypoints, travelled: float) -> Position:
    if travelled <= 0.0 or len(waypoints) == 1:
        return waypoints[0]
    covered = 0.0
    for a, b in zip(waypoints, waypoints[1:]):
        segment = Segment(a, b)
        seg_len = segment.length
        if seg_len > 0.0 and covered + seg_len >= travelled:
            return segment.point_at((travelled - covered) / seg_len)
        covered += seg_len
    return waypoints[-1]


coordinates = st.floats(min_value=0.0, max_value=256.0, allow_nan=False)
# A coarse grid as well, so repeated waypoints (zero-length segments) show up.
coarse = st.sampled_from([0.0, 16.0, 128.0, 255.5])
points = st.builds(
    Position,
    st.one_of(coordinates, coarse),
    st.one_of(coordinates, coarse),
    st.floats(min_value=-10.0, max_value=50.0, allow_nan=False),
)
polylines = st.lists(points, min_size=1, max_size=7)
distances = st.floats(min_value=-5.0, max_value=600.0, allow_nan=False)


class TestCachedPathLengths:
    @given(polylines)
    @settings(max_examples=200, deadline=None)
    def test_length_is_bit_equal(self, waypoints):
        path = Path(waypoints=list(waypoints))
        assert path.length == reference_length(waypoints)
        assert path.remaining == max(0.0, reference_length(waypoints))

    @given(polylines, st.lists(distances, min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_position_at_is_bit_equal(self, waypoints, travelled):
        path = Path.from_points(waypoints)
        for t in travelled:
            assert path.position_at(t) == reference_position_at(waypoints, t)

    @given(polylines, st.lists(st.floats(min_value=0.0, max_value=80.0), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_advance_is_bit_equal(self, waypoints, steps):
        path = Path.from_points(waypoints)
        total = reference_length(waypoints)
        walked = 0.0
        for step in steps:
            walked = min(walked + step, total)
            assert path.advance(step) == reference_position_at(waypoints, walked)
            assert path.walked == walked
            assert path.remaining == max(0.0, total - walked)
            assert path.finished == (walked >= total)

    @given(polylines)
    @settings(max_examples=50, deadline=None)
    def test_waypoints_are_an_immutable_tuple(self, waypoints):
        path = Path(waypoints=list(waypoints))
        assert isinstance(path.waypoints, tuple)
        assert path.waypoints == tuple(waypoints)
