"""Avatars: users embodied on a land.

An avatar is a small state machine — WALKING along the current leg,
PAUSED between legs, SITTING on an object, or OFFLINE — advanced by
the world clock.  All movement decisions are delegated to the avatar's
mobility model; the avatar only executes them.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.geometry import Path, Position
from repro.mobility import Leg, MobilityModel

#: Floor applied to degenerate (zero-length, zero-pause) legs so a
#: misbehaving mobility model cannot stall the simulation clock.
_MIN_EFFECTIVE_PAUSE = 0.25

#: Time left in a tick below which :meth:`Avatar.tick` stops stepping.
_TICK_EPSILON = 1e-12

#: Sentinel marking per-avatar mobility state that has not been seeded
#: yet (``None`` is a valid state for stateless models).
_STATE_UNSET = object()


class AvatarState(enum.Enum):
    """Lifecycle states of an embodied avatar."""

    WALKING = "walking"
    PAUSED = "paused"
    SITTING = "sitting"
    OFFLINE = "offline"


@dataclass
class Avatar:
    """One user connected to a land.

    The world engine ticks every avatar once per simulation step (via
    :func:`tick_all`); the avatar walks its current leg at the leg's speed, pauses on arrival,
    and asks the mobility model for a new leg when the pause runs out.
    """

    user_id: str
    model: MobilityModel
    position: Position
    state: AvatarState = AvatarState.PAUSED
    login_time: float = 0.0
    logout_time: float = float("inf")
    distance_walked: float = field(default=0.0, repr=False)
    seconds_moving: float = field(default=0.0, repr=False)
    _leg: Leg | None = field(default=None, repr=False)
    _pause_left: float = field(default=0.0, repr=False)
    _model_state: object = field(default=_STATE_UNSET, repr=False)

    @property
    def online(self) -> bool:
        """True while the avatar is present on the land."""
        return self.state is not AvatarState.OFFLINE

    @property
    def reported_position(self) -> Position:
        """What a monitor reads for this avatar.

        Sitting avatars report the origin — the SL artefact the paper
        documents ("when a user sits on an object her coordinates are
        {x=0, y=0, z=0}").
        """
        if self.state is AvatarState.SITTING:
            return Position(0.0, 0.0, 0.0)
        return self.position

    # -- state transitions ------------------------------------------------

    def sit(self) -> None:
        """Sit on an object at the current location."""
        if not self.online:
            raise RuntimeError(f"avatar {self.user_id} is offline")
        self.state = AvatarState.SITTING
        self._leg = None
        self._pause_left = 0.0

    def stand(self) -> None:
        """Stand up; the next tick resumes normal mobility."""
        if self.state is AvatarState.SITTING:
            self.state = AvatarState.PAUSED

    def logout(self) -> None:
        """Disconnect from the land."""
        self.state = AvatarState.OFFLINE
        self._leg = None

    def redirect_to(self, target: Position, speed: float = 3.0) -> None:
        """Override the current leg and walk straight to ``target``.

        Used by the crawler-perturbation mechanism: curious users drop
        what they were doing and walk toward the new arrival.  Sitting
        and offline avatars ignore the call.
        """
        if not self.online or self.state is AvatarState.SITTING:
            return
        self._leg = Leg(Path.from_points([self.position, target]), speed=speed, pause=0.0)
        self._pause_left = 0.0
        self.state = AvatarState.WALKING

    # -- clock ---------------------------------------------------------------

    def tick(self, dt: float, rng: np.random.Generator) -> None:
        """Advance the avatar by ``dt`` seconds.

        A single tick may span several leg boundaries (finish walking,
        pause briefly, start the next leg); the loop consumes the whole
        ``dt`` so avatar kinematics are independent of tick size.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if self.state in (AvatarState.OFFLINE, AvatarState.SITTING):
            return

        remaining = dt
        while remaining > _TICK_EPSILON:
            if self.state is AvatarState.PAUSED:
                if self._pause_left > remaining:
                    self._pause_left -= remaining
                    return
                remaining -= self._pause_left
                self._pause_left = 0.0
                if self._model_state is _STATE_UNSET:
                    self._model_state = self.model.initial_state(self.position, rng)
                leg, self._model_state = self.model.next_leg_from(
                    self.position, self._model_state, rng
                )
                self._begin(leg)
            else:  # WALKING
                leg = self._leg
                assert leg is not None, "walking avatar must have a leg"
                distance_left = leg.path.remaining
                seconds_to_arrival = distance_left / leg.speed
                if seconds_to_arrival > remaining:
                    step = leg.speed * remaining
                    self.position = leg.path.advance(step)
                    self.distance_walked += step
                    self.seconds_moving += remaining
                    return
                self.position = leg.path.advance(distance_left)
                self.distance_walked += distance_left
                self.seconds_moving += seconds_to_arrival
                remaining -= seconds_to_arrival
                self.state = AvatarState.PAUSED
                self._pause_left = leg.pause
                self._leg = None

    def _begin(self, leg: Leg) -> None:
        """Install a new leg, degrading degenerate ones to a short pause."""
        if leg.path.length > 1e-9 and leg.speed > 0:
            self._leg = leg
            self.state = AvatarState.WALKING
        else:
            self._leg = None
            self.state = AvatarState.PAUSED
            self._pause_left = max(leg.pause, _MIN_EFFECTIVE_PAUSE)


def tick_all(avatars: Iterable[Avatar], dt: float, rng: np.random.Generator) -> Iterator[Avatar]:
    """Tick each avatar in turn, yielding those whose position the tick replaced.

    The same as calling :meth:`Avatar.tick` on each avatar in order, so
    the draws from ``rng`` are the same, but the two commonest ticks
    skip the call: a sitting avatar's tick is a no-op, and a paused
    avatar whose pause outlasts ``dt`` only counts it down, which is
    the subtraction ``tick`` makes in that case.  A moved avatar is
    yielded before the next one ticks.
    """
    for avatar in avatars:
        state = avatar.state
        if state is AvatarState.SITTING:
            continue
        if state is AvatarState.PAUSED and avatar._pause_left > dt > _TICK_EPSILON:
            avatar._pause_left -= dt
            continue
        before = avatar.position
        avatar.tick(dt, rng)
        if avatar.position is not before:
            yield avatar
