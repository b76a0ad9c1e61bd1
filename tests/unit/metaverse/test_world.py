"""Unit tests for repro.metaverse.world."""

import numpy as np
import pytest

from repro.geometry import Position, distance
from repro.metaverse import (
    Avatar,
    Land,
    Population,
    ScheduledEvent,
    SessionProcess,
    World,
)
from repro.mobility import PoiMobility, PointOfInterest, RandomWaypoint, StaticModel


def _population(rate=120.0, revisit=0.0, prefix="user"):
    return Population(
        prefix,
        SessionProcess(hourly_rate=rate, revisit_probability=revisit, user_prefix=prefix),
        RandomWaypoint(256.0, 256.0),
    )


def _world(**kwargs):
    land = kwargs.pop("land", Land("Test"))
    pops = kwargs.pop("populations", [_population()])
    return World(land, pops, **kwargs)


class TestClock:
    def test_run_until_advances(self):
        world = _world(seed=1)
        world.run_until(100.0)
        assert world.now == pytest.approx(100.0)

    def test_cannot_run_backwards(self):
        world = _world(seed=1)
        world.run_until(50.0)
        with pytest.raises(ValueError, match="backwards"):
            world.run_until(10.0)

    def test_start_time_offsets_clock(self):
        world = _world(seed=1, start_time=7200.0)
        assert world.now == 7200.0
        world.run_until(7210.0)
        assert world.now == pytest.approx(7210.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one population"):
            World(Land("X"), [])
        with pytest.raises(ValueError, match="dt"):
            _world(dt=0.0)
        with pytest.raises(ValueError, match="start time"):
            _world(start_time=-5.0)


class TestPopulationFlow:
    def test_logins_accumulate(self):
        world = _world(seed=2)
        world.run_until(1800.0)
        assert world.stats.logins > 20
        assert world.online_count > 0

    def test_logouts_follow_sessions(self):
        world = _world(seed=3)
        world.run_until(4 * 3600.0)
        assert world.stats.logouts > 0
        assert world.online_count == world.stats.logins - world.stats.logouts

    def test_capacity_cap_enforced(self):
        land = Land("Tiny", max_concurrent=5)
        world = _world(land=land, populations=[_population(rate=600.0)], seed=4)
        world.run_until(3600.0)
        assert world.online_count <= 5
        assert world.stats.rejected_at_capacity > 0

    def test_avatars_stay_on_land(self):
        world = _world(seed=5)
        world.run_until(600.0)
        for avatar in world.online_avatars():
            assert world.land.contains(avatar.position)

    def test_multiple_populations_mix(self):
        pops = [_population(prefix="a"), _population(prefix="b")]
        world = _world(populations=pops, seed=6)
        world.run_until(1800.0)
        prefixes = {av.user_id.split("-")[0] for av in world.online_avatars()}
        assert prefixes == {"a", "b"}

    def test_deterministic_given_seed(self):
        def run(seed):
            world = _world(seed=seed)
            world.run_until(900.0)
            return sorted(
                (av.user_id, round(av.position.x, 6), round(av.position.y, 6))
                for av in world.online_avatars()
            )

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_revisiting_user_returns_with_same_id(self):
        pops = [
            Population(
                "r",
                SessionProcess(
                    hourly_rate=200.0,
                    revisit_probability=0.6,
                    user_prefix="r",
                ),
                RandomWaypoint(256.0, 256.0),
            )
        ]
        world = _world(populations=pops, seed=9)
        world.run_until(6 * 3600.0)
        # More logins than distinct users means re-logins happened.
        assert world.stats.logins > len(world._avatars)


class TestEvents:
    def _event_world(self, seed=10):
        venue = PointOfInterest("stage", 128.0, 128.0, radius=15.0, weight=1.0)
        land = Land("E", pois=[venue])
        model = PoiMobility(256.0, 256.0, [venue])
        event = ScheduledEvent("party", start=600.0, end=1800.0, venue=venue,
                               arrival_boost=4.0)
        pop = Population("visitors", SessionProcess(hourly_rate=60.0), model)
        return World(land, [pop], events=(event,), seed=seed)

    def test_event_boosts_arrivals(self):
        world = self._event_world()
        world.run_until(600.0)
        before = world.stats.logins
        world.run_until(1800.0)
        during = world.stats.logins - before
        world.run_until(3000.0)
        after = world.stats.logins - before - during
        # 1200 s of event vs 1200 s after it: boost 4 means ~4x logins.
        assert during > 2.0 * after

    def test_event_boost_function(self):
        world = self._event_world()
        assert world._event_boost(700.0) == 4.0
        assert world._event_boost(1800.0) == 1.0

    def test_window_boost_is_constant_between_edges(self):
        world = self._event_world()
        assert world._window_boost(0.0, 599.0) == 1.0
        assert world._window_boost(600.0, 1200.0) == 4.0
        assert world._window_boost(1800.0, 2400.0) == 1.0
        # An edge inside (start, stop] hands over the function, an
        # edge at the window's start does not.
        assert world._window_boost(599.0, 600.0) == world._event_boost
        assert world._window_boost(1000.0, 1800.0) == world._event_boost
        assert world._window_boost(1799.0, 1800.0) == world._event_boost
        assert world._window_boost(1800.0, 1801.0) == 1.0

    def test_no_events_means_unit_boost(self):
        assert _world(seed=1)._window_boost(0.0, 3600.0) == 1.0

    def test_short_event_inside_a_long_window_is_boosted(self):
        # One 24 h scheduling window: its 97 envelope points are 900 s
        # apart, so only the event edges the world passes on keep the
        # 300 s, 5x event inside the thinning envelope.
        venue = PointOfInterest("stage", 128.0, 128.0, radius=15.0, weight=1.0)
        event = ScheduledEvent("flash", start=40000.0, end=40300.0, venue=venue, arrival_boost=5.0)
        pop = Population("v", SessionProcess(hourly_rate=3600.0), RandomWaypoint(256.0, 256.0))
        world = World(Land("E", pois=[venue]), [pop], events=(event,), seed=0)
        world.prepare(24 * 3600.0)
        inside = sum(1 for visit, _, during in world._pending if during)
        assert abs(inside - 1500) < 5 * np.sqrt(1500)


class TestObservers:
    def test_observer_not_in_snapshot(self):
        world = _world(seed=11)
        crawler_avatar = Avatar(
            "crawler", StaticModel(256.0, 256.0, anchor=Position(128.0, 128.0)),
            Position(128.0, 128.0),
        )
        world.add_observer(crawler_avatar, conspicuous=False)
        world.run_until(60.0)
        assert "crawler" not in world.snapshot_positions()
        assert "crawler" in world.snapshot_positions(include_observers=True)

    def test_duplicate_observer_rejected(self):
        world = _world(seed=12)
        avatar = Avatar("c", StaticModel(256.0, 256.0), Position(1, 1))
        world.add_observer(avatar, conspicuous=False)
        with pytest.raises(ValueError, match="already present"):
            world.add_observer(avatar, conspicuous=False)

    def test_remove_observer(self):
        world = _world(seed=13)
        avatar = Avatar("c", StaticModel(256.0, 256.0), Position(1, 1))
        world.add_observer(avatar, conspicuous=False)
        world.remove_observer("c")
        assert world.observer_avatars() == []


class TestAttraction:
    def test_conspicuous_observer_attracts(self):
        world = _world(seed=14, attraction_probability=0.05)
        magnet = Avatar(
            "naive-crawler",
            StaticModel(256.0, 256.0, anchor=Position(128.0, 128.0)),
            Position(128.0, 128.0),
        )
        world.add_observer(magnet, conspicuous=True)
        world.run_until(1800.0)
        assert world.stats.attraction_redirects > 0

    def test_mimicking_observer_does_not_attract(self):
        world = _world(seed=14, attraction_probability=0.05)
        blend_in = Avatar(
            "mimic-crawler", RandomWaypoint(256.0, 256.0), Position(128.0, 128.0)
        )
        world.add_observer(blend_in, conspicuous=False)
        world.run_until(1800.0)
        assert world.stats.attraction_redirects == 0

    def test_attraction_pulls_users_closer(self):
        def mean_distance_to_center(attraction):
            world = _world(seed=15, attraction_probability=attraction)
            magnet = Avatar(
                "crawler",
                StaticModel(256.0, 256.0, anchor=Position(128.0, 128.0)),
                Position(128.0, 128.0),
            )
            world.add_observer(magnet, conspicuous=attraction > 0)
            world.run_until(3600.0)
            avatars = world.online_avatars()
            return np.mean(
                [distance(av.position, Position(128.0, 128.0)) for av in avatars]
            )

        assert mean_distance_to_center(0.05) < mean_distance_to_center(0.0)
