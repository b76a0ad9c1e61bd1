"""The world engine: a land, its population, and a 1-second clock.

The engine is deliberately simple — a fixed-step loop — because the
measurement methodology depends on *when* state is observed, not on
event-driven efficiency: the paper's crawler samples every τ = 10 s
while avatars move continuously, so contacts shorter than τ can be
missed.  Simulating at finer resolution than the monitors keeps that
sampling error in the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.geometry import Position, distance
from repro.metaverse.avatar import Avatar, AvatarState, tick_all
from repro.metaverse.chat import ChatChannel
from repro.metaverse.events import ScheduledEvent
from repro.metaverse.land import Land
from repro.metaverse.sessions import PlannedVisit, SessionProcess
from repro.mobility import MobilityModel


@dataclass
class Population:
    """A class of users sharing an arrival process and a mobility law.

    ``event_model`` (optional) replaces ``model`` for users who log in
    while a scheduled event is active — event-goers head to the venue.
    ``sits_on_arrival`` models money-land campers: the avatar sits as
    soon as it materializes, so monitors read the SL sitting artefact
    ``{0,0,0}`` for it (the reason the paper avoided such lands).
    """

    name: str
    process: SessionProcess
    model: MobilityModel
    event_model: MobilityModel | None = None
    sits_on_arrival: bool = False


@dataclass
class WorldStats:
    """Counters the engine maintains while running."""

    logins: int = 0
    logouts: int = 0
    rejected_at_capacity: int = 0
    attraction_redirects: int = 0


@dataclass
class _Observer:
    """A monitor-controlled avatar present on the land (the crawler)."""

    avatar: Avatar
    conspicuous: bool


class World:
    """Discrete-time simulation of one land.

    Parameters
    ----------
    land:
        The region to simulate.
    populations:
        One or more user populations (visitors, campers, ...).
    events:
        Scheduled events; they boost arrivals and redirect event-time
        logins to the venue (see :class:`ScheduledEvent`).
    seed:
        Seed for the world's private random generator.
    dt:
        Clock resolution in seconds; 1 s by default.
    attraction_probability:
        Per-second chance that an avatar within ``attraction_range`` of
        a *conspicuous* observer abandons its current movement and
        walks toward it — the perturbation the authors observed with
        their naive crawler.
    attraction_range:
        Distance within which a conspicuous observer draws attention.
    """

    def __init__(
        self,
        land: Land,
        populations: list[Population],
        events: tuple[ScheduledEvent, ...] | list[ScheduledEvent] = (),
        seed: int = 0,
        dt: float = 1.0,
        attraction_probability: float = 0.004,
        attraction_range: float = 96.0,
        start_time: float = 0.0,
    ) -> None:
        if not populations:
            raise ValueError("a world needs at least one population")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if not 0.0 <= attraction_probability <= 1.0:
            raise ValueError(
                f"attraction probability must be in [0, 1], got {attraction_probability}"
            )
        if start_time < 0:
            raise ValueError(f"start time must be >= 0, got {start_time}")
        self.land = land
        self.populations = list(populations)
        self.events = tuple(events)
        self.dt = float(dt)
        self.attraction_probability = float(attraction_probability)
        self.attraction_range = float(attraction_range)
        self.rng = np.random.default_rng(seed)
        self.chat = ChatChannel()
        self.stats = WorldStats()
        # The clock may start mid-day so short measurement windows see
        # the diurnal profile in a realistic phase; events stay pinned
        # to absolute world time.
        self.now = float(start_time)
        self._avatars: dict[str, Avatar] = {}
        self._online: dict[str, Avatar] = {}
        self._observers: dict[str, _Observer] = {}
        self._pending: list[tuple[PlannedVisit, Population, bool]] = []
        self._pending_cursor = 0
        self._scheduled_until = float(start_time)
        self._serials: dict[str, int] = {}
        # Times where the event boost may change level.
        self._event_edges = tuple(
            edge for event in self.events for edge in (event.start, event.end)
        )

    # -- scheduling -----------------------------------------------------

    def prepare(self, horizon: float) -> None:
        """Schedule all arrivals within ``[0, horizon)`` up front.

        Called implicitly by :meth:`run_until`; calling it directly is
        useful when the visit schedule itself is under test.  Extending
        an existing schedule re-plans only the uncovered suffix.
        """
        if horizon <= self._scheduled_until:
            return
        start = self._scheduled_until
        # ``schedule`` samples up to ``start + duration``, which may
        # differ from ``horizon`` in the last bit.
        boost = self._window_boost(start, start + (horizon - start))
        arrivals: list[tuple[PlannedVisit, Population, bool]] = []
        for population in self.populations:
            for visit in self._schedule_population(population, start, horizon, boost):
                during_event = any(e.active_at(visit.arrival_time) for e in self.events)
                arrivals.append((visit, population, during_event))
        if arrivals:
            self._pending.extend(arrivals)
            # Keep pending arrivals globally time-ordered past the
            # cursor.  A tail nothing was added to is still in order.
            tail = sorted(self._pending[self._pending_cursor:], key=lambda a: a[0].arrival_time)
            self._pending[self._pending_cursor:] = tail
        self._scheduled_until = horizon

    def _schedule_population(
        self,
        population: Population,
        start: float,
        end: float,
        boost: "float | Callable[[float], float]",
    ) -> list[PlannedVisit]:
        """Arrivals of users first appearing in ``[start, end)``.

        Delegates to the population's session process (which handles
        thinning, revisit chains and serial numbering) with the event
        boost (see :meth:`_window_boost`) as the rate multiplier.
        Revisit arrivals may land beyond ``end``; they stay pending
        until the clock reaches them.
        """
        process = population.process
        visits = process.schedule(
            duration=end - start,
            rng=self.rng,
            start=start,
            boost=boost,
            serial_start=self._serials.get(process.user_prefix, 0),
            boost_steps=self._event_edges,
        )
        first_visits = {visit.user_id for visit in visits}
        self._serials[process.user_prefix] = (
            self._serials.get(process.user_prefix, 0) + len(first_visits)
        )
        return visits

    def _window_boost(
        self, start: float, stop: float
    ) -> "float | Callable[[float], float]":
        """The ``boost`` argument for a schedule sampled over ``[start, stop]``.

        The event boost only changes level at an event edge: ``t``
        and ``u > t`` see the same events active unless an edge ``e``
        has ``t < e <= u``.  Without such an edge in the window every
        point the schedule would sample gives ``_event_boost(start)``,
        so the window gets that constant instead of the function.
        """
        if any(start < edge <= stop for edge in self._event_edges):
            return self._event_boost
        return self._event_boost(start)

    def _event_boost(self, t: float) -> float:
        """Combined arrival multiplier of all events active at ``t``."""
        boost = 1.0
        for event in self.events:
            if event.active_at(t):
                boost *= event.arrival_boost
        return boost

    # -- population access -----------------------------------------------

    def online_avatars(self) -> list[Avatar]:
        """Regular avatars currently connected (observers excluded)."""
        return list(self._online.values())

    @property
    def online_count(self) -> int:
        """Number of connected regular avatars."""
        return len(self._online)

    def avatar(self, user_id: str) -> Avatar:
        """Look up any avatar ever seen; raises ``KeyError`` when unknown."""
        return self._avatars[user_id]

    # -- observers (monitor-controlled avatars) ----------------------------

    def add_observer(self, avatar: Avatar, conspicuous: bool) -> None:
        """Embody a monitor's avatar on the land.

        Observer avatars are visible to users (and can perturb them)
        but never appear in :meth:`snapshot_positions` unless asked.
        """
        if avatar.user_id in self._observers:
            raise ValueError(f"observer {avatar.user_id!r} already present")
        self._observers[avatar.user_id] = _Observer(avatar, conspicuous)

    def remove_observer(self, user_id: str) -> None:
        """Withdraw a monitor's avatar."""
        del self._observers[user_id]

    def observer_avatars(self) -> list[Avatar]:
        """The embodied monitor avatars."""
        return [obs.avatar for obs in self._observers.values()]

    # -- sampling -----------------------------------------------------------

    def snapshot_positions(self, include_observers: bool = False) -> dict[str, Position]:
        """User-id → reported position for every connected avatar."""
        positions = {
            user_id: avatar.reported_position
            for user_id, avatar in self._online.items()
        }
        if include_observers:
            for user_id, obs in self._observers.items():
                positions[user_id] = obs.avatar.reported_position
        return positions

    def snapshot_arrays(
        self, include_observers: bool = False
    ) -> tuple[list[str], np.ndarray]:
        """User ids and an ``(n, 3)`` coordinate block, in one pass.

        The columnar counterpart of :meth:`snapshot_positions` (same
        avatars, same order): streaming monitors feed these straight
        into :meth:`Snapshot.from_arrays
        <repro.trace.Snapshot.from_arrays>` and on to an
        :class:`~repro.trace.RtrcDirAppender`, skipping the dict-of-
        ``Position`` round trip on the per-sample hot path.
        """
        avatars = list(self._online.values())
        if include_observers:
            avatars.extend(obs.avatar for obs in self._observers.values())
        names = [avatar.user_id for avatar in avatars]
        coords = np.empty((len(avatars), 3), dtype=np.float64)
        for row, avatar in enumerate(avatars):
            pos = avatar.reported_position
            coords[row, 0] = pos.x
            coords[row, 1] = pos.y
            coords[row, 2] = pos.z
        return names, coords

    # -- clock ----------------------------------------------------------------

    def run_until(self, t: float) -> None:
        """Advance the world clock to ``t`` (scheduling as needed)."""
        if t < self.now:
            raise ValueError(f"cannot run backwards: now={self.now}, asked {t}")
        self.prepare(t)
        while self.now + self.dt <= t + 1e-9:
            self.step()

    def step(self) -> None:
        """Advance one clock tick.

        Departures run before arrivals so a user whose re-visit lands
        in the same tick as her logout is cleanly logged out first.
        """
        self.prepare(self.now + self.dt)
        self.now += self.dt
        self._process_departures()
        self._process_arrivals()
        self._tick_avatars()
        self._apply_attraction()

    def _process_arrivals(self) -> None:
        while self._pending_cursor < len(self._pending):
            visit, population, during_event = self._pending[self._pending_cursor]
            if visit.arrival_time > self.now:
                break
            self._pending_cursor += 1
            if len(self._online) >= self.land.max_concurrent:
                self.stats.rejected_at_capacity += 1
                continue
            model = population.model
            if during_event and population.event_model is not None:
                model = population.event_model
            position = self.land.clamp(model.initial_position(self.rng))
            avatar = Avatar(
                user_id=visit.user_id,
                model=model,
                position=position,
                login_time=visit.arrival_time,
                logout_time=visit.departure_time,
            )
            if population.sits_on_arrival:
                avatar.sit()
            self._avatars[visit.user_id] = avatar
            self._online[visit.user_id] = avatar
            self.stats.logins += 1

    def _process_departures(self) -> None:
        departed = [
            user_id
            for user_id, avatar in self._online.items()
            if avatar.logout_time <= self.now
        ]
        for user_id in departed:
            self._online[user_id].logout()
            del self._online[user_id]
            self.stats.logouts += 1

    def _tick_avatars(self) -> None:
        """Advance every avatar one tick, clamping only positions that moved.

        Every position an avatar holds was clamped already, and
        clamping a clamped point gives back the same values, so only
        the avatars :func:`tick_all` yields need it.
        """
        clamp = self.land.clamp
        for avatar in tick_all(self._online.values(), self.dt, self.rng):
            avatar.position = clamp(avatar.position)
        for obs in self._observers.values():
            obs.avatar.tick(self.dt, self.rng)
            obs.avatar.position = self.land.clamp(obs.avatar.position)

    def _apply_attraction(self) -> None:
        """Perturbation: users converge on conspicuous observers."""
        conspicuous = [
            obs.avatar for obs in self._observers.values() if obs.conspicuous
        ]
        if not conspicuous:
            return
        p = self.attraction_probability * self.dt
        if p <= 0.0:
            return
        for avatar in self._online.values():
            if avatar.state is AvatarState.SITTING:
                continue
            for magnet in conspicuous:
                if distance(avatar.position, magnet.position) > self.attraction_range:
                    continue
                if self.rng.random() < p:
                    avatar.redirect_to(magnet.position)
                    self.stats.attraction_redirects += 1
                    break
