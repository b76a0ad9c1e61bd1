"""Polyline paths walked by avatars.

A mobility model produces a :class:`Path` — an ordered list of
waypoints — and the world engine advances an avatar along it at the
avatar's speed.  Paths support constant-speed interpolation so the
1-second simulation clock yields positions anywhere along a segment,
not only at waypoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.geometry.vectors import Position, distance


@dataclass(frozen=True)
class Segment:
    """One straight leg of a path."""

    start: Position
    end: Position

    @property
    def length(self) -> float:
        """Planar length of the leg in meters."""
        return distance(self.start, self.end)

    def point_at(self, fraction: float) -> Position:
        """Position after covering ``fraction`` of the leg (0..1).

        Values outside [0, 1] extrapolate linearly; callers that walk a
        path never pass them, but tests exercise the behaviour.
        """
        return Position(
            self.start.x + (self.end.x - self.start.x) * fraction,
            self.start.y + (self.end.y - self.start.y) * fraction,
            self.start.z + (self.end.z - self.start.z) * fraction,
        )


@dataclass
class Path:
    """A polyline with constant-speed traversal state.

    The path tracks how far along it has been walked; ``advance``
    moves the cursor and returns the new position, which makes the
    world-engine update loop a single call per avatar per tick.

    Waypoints are stored as a tuple and the segment lengths are summed
    once at construction, so ``length``, ``remaining`` and
    ``position_at`` cost no ``Segment`` objects per call.  The cached
    total is the same left-to-right sum the segments would give.
    """

    waypoints: tuple[Position, ...] = ()
    _walked: float = field(default=0.0, repr=False)
    _lengths: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _length: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.waypoints = tuple(self.waypoints)
        if len(self.waypoints) < 1:
            raise ValueError("a path needs at least one waypoint")
        self._lengths = tuple(
            distance(start, end) for start, end in zip(self.waypoints, self.waypoints[1:])
        )
        self._length = sum(self._lengths)

    @classmethod
    def from_points(cls, points: Sequence[Position | Sequence[float]]) -> "Path":
        """Build a path, coercing raw tuples into :class:`Position`."""
        coerced = [
            p if isinstance(p, Position) else Position(p[0], p[1], p[2] if len(p) > 2 else 0.0)
            for p in points
        ]
        return cls(waypoints=tuple(coerced))

    def segments(self) -> Iterator[Segment]:
        """Yield the straight legs between consecutive waypoints."""
        for start, end in zip(self.waypoints, self.waypoints[1:]):
            yield Segment(start, end)

    @property
    def length(self) -> float:
        """Total planar length of the polyline."""
        return self._length

    @property
    def walked(self) -> float:
        """Distance already covered along the path."""
        return self._walked

    @property
    def remaining(self) -> float:
        """Distance left to the final waypoint."""
        return max(0.0, self._length - self._walked)

    @property
    def finished(self) -> bool:
        """True once the cursor has reached the final waypoint."""
        return self._walked >= self._length

    def position_at(self, travelled: float) -> Position:
        """Position after covering ``travelled`` meters from the start.

        Clamps to the endpoints, so negative input returns the first
        waypoint and overshoot returns the last.
        """
        waypoints = self.waypoints
        if travelled <= 0.0 or len(waypoints) == 1:
            return waypoints[0]
        covered = 0.0
        for index, seg_len in enumerate(self._lengths):
            if seg_len > 0.0 and covered + seg_len >= travelled:
                segment = Segment(waypoints[index], waypoints[index + 1])
                return segment.point_at((travelled - covered) / seg_len)
            covered += seg_len
        return waypoints[-1]

    def advance(self, step: float) -> Position:
        """Move the cursor ``step`` meters forward and return the position.

        ``step`` is typically ``speed * dt``.  Negative steps are
        rejected — avatars do not walk paths backwards.
        """
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        self._walked = min(self._walked + step, self._length)
        return self.position_at(self._walked)

    def current_position(self) -> Position:
        """Position at the cursor without advancing."""
        return self.position_at(self._walked)
