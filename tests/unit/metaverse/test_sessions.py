"""Unit tests for repro.metaverse.sessions."""

import hashlib

import numpy as np
import pytest

from repro.metaverse import PlannedVisit, SessionProcess
from repro.metaverse.sessions import (
    EVENING_PROFILE,
    FLAT_PROFILE,
    MAX_SESSION_SECONDS,
    VisitIterator,
)
from tests.unit.metaverse.golden_traces import mismatch_message


@pytest.fixture
def rng():
    return np.random.default_rng(77)


class TestPlannedVisit:
    def test_departure(self):
        v = PlannedVisit("u", 100.0, 50.0)
        assert v.departure_time == 150.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PlannedVisit("u", -1.0, 10.0)
        with pytest.raises(ValueError):
            PlannedVisit("u", 0.0, 0.0)


class TestProfiles:
    def test_flat_profile(self):
        assert len(FLAT_PROFILE) == 24
        assert all(m == 1.0 for m in FLAT_PROFILE)

    def test_evening_profile_normalized(self):
        assert len(EVENING_PROFILE) == 24
        assert sum(EVENING_PROFILE) / 24.0 == pytest.approx(1.0)

    def test_evening_peak_in_the_evening(self):
        assert max(EVENING_PROFILE) == EVENING_PROFILE[20]


class TestSessionProcess:
    def test_rate_at_flat(self):
        proc = SessionProcess(hourly_rate=360.0)
        assert proc.rate_at(0.0) == pytest.approx(0.1)
        assert proc.rate_at(12 * 3600.0) == pytest.approx(0.1)

    def test_rate_follows_profile(self):
        proc = SessionProcess(hourly_rate=100.0, diurnal_profile=EVENING_PROFILE)
        assert proc.rate_at(20.5 * 3600.0) > proc.rate_at(3.5 * 3600.0)

    def test_rate_wraps_around_midnight(self):
        proc = SessionProcess(hourly_rate=100.0, diurnal_profile=EVENING_PROFILE)
        assert proc.rate_at(3.0 * 3600.0) == proc.rate_at(27.0 * 3600.0)

    def test_schedule_counts_match_rate(self, rng):
        proc = SessionProcess(hourly_rate=120.0)
        visits = proc.schedule(3600.0 * 10, rng)
        assert len(visits) == pytest.approx(1200, rel=0.1)

    def test_schedule_time_ordered_and_in_window(self, rng):
        proc = SessionProcess(hourly_rate=60.0)
        visits = proc.schedule(3600.0, rng, start=1800.0)
        times = [v.arrival_time for v in visits]
        assert times == sorted(times)
        assert all(1800.0 <= t for t in times)

    def test_unique_ids(self, rng):
        proc = SessionProcess(hourly_rate=100.0)
        visits = proc.schedule(3600.0, rng)
        first_ids = {v.user_id for v in visits}
        assert len(first_ids) == len(visits)  # no revisits by default

    def test_serial_start_offsets_ids(self, rng):
        proc = SessionProcess(hourly_rate=100.0, user_prefix="x")
        visits = proc.schedule(600.0, rng, serial_start=500)
        assert all(int(v.user_id.split("-")[-1]) > 500 for v in visits)

    def test_durations_capped(self, rng):
        proc = SessionProcess(hourly_rate=200.0)
        visits = proc.schedule(4 * 3600.0, rng)
        assert all(v.duration <= MAX_SESSION_SECONDS for v in visits)

    def test_boost_multiplies_arrivals(self, rng):
        proc = SessionProcess(hourly_rate=60.0)
        plain = proc.schedule(4 * 3600.0, np.random.default_rng(1))
        boosted = proc.schedule(
            4 * 3600.0, np.random.default_rng(1), boost=lambda t: 3.0
        )
        assert len(boosted) > 2.0 * len(plain)

    def test_expected_unique_users(self):
        proc = SessionProcess(hourly_rate=50.0)
        assert proc.expected_unique_users(2.5 * 3600.0) == pytest.approx(125.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionProcess(hourly_rate=0.0)
        with pytest.raises(ValueError):
            SessionProcess(hourly_rate=10.0, diurnal_profile=(1.0,) * 23)
        with pytest.raises(ValueError):
            SessionProcess(hourly_rate=10.0, diurnal_profile=(0.0,) * 24)
        with pytest.raises(ValueError):
            SessionProcess(hourly_rate=10.0, revisit_probability=1.0)


def _visits_digest(runs):
    digest = hashlib.sha256()
    for visits in runs:
        for v in visits:
            digest.update(f"{v.user_id} {v.arrival_time!r} {v.duration!r}\n".encode())
        digest.update(b"--\n")
    return digest.hexdigest()


class TestBoostContract:
    """A constant boost is the function that always returns it."""

    LEVELS = (0.5, 1.0, 1.9, 4.0)
    SEEDS = range(4)
    #: Visits of ``boost=lambda t: c`` for every level and seed, recorded
    #: before ``schedule`` accepted constants (with ``RECORDED_WITH``).
    PINNED = "dcf853d057924ff83f1996ef6df8470101862a430336b50bbaac6f99cb8b2648"

    @staticmethod
    def _schedule(boost, seed):
        proc = SessionProcess(
            hourly_rate=95.0,
            diurnal_profile=EVENING_PROFILE,
            user_prefix="c",
            revisit_probability=0.3,
        )
        return proc.schedule(7200.0, np.random.default_rng(seed), start=9.5 * 3600.0, boost=boost)

    def test_constant_equals_function(self):
        for level in self.LEVELS:
            for seed in self.SEEDS:
                constant = self._schedule(level, seed)
                function = self._schedule(lambda t, c=level: c, seed)
                assert constant == function, (level, seed)

    def test_function_output_is_pinned(self):
        runs = [
            self._schedule(lambda t, c=level: c, seed)
            for level in self.LEVELS
            for seed in self.SEEDS
        ]
        assert _visits_digest(runs) == self.PINNED, mismatch_message("boost contract")

    @pytest.mark.parametrize("level", [0.0, -1.0])
    def test_non_positive_constant_rejected(self, level, rng):
        with pytest.raises(ValueError, match="positive"):
            SessionProcess(hourly_rate=60.0).schedule(600.0, rng, boost=level)


class TestShortBoost:
    """A boost shorter than the envelope's sample spacing still counts."""

    EVENT_START, EVENT_LENGTH, LEVEL = 40000.0, 300.0, 5.0

    def _boost(self, t):
        inside = self.EVENT_START <= t < self.EVENT_START + self.EVENT_LENGTH
        return self.LEVEL if inside else 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_event_arrivals_match_the_boosted_rate(self, seed):
        # 3600 arrivals/h over a 24 h window: the 97 envelope points are
        # 900 s apart and all miss the 300 s event, so without its edges
        # the envelope stays at the base rate and thinning caps the
        # event's arrivals at ~300 instead of ~1500.
        proc = SessionProcess(hourly_rate=3600.0)
        visits = proc.schedule(
            24 * 3600.0,
            np.random.default_rng(seed),
            boost=self._boost,
            boost_steps=(self.EVENT_START, self.EVENT_START + self.EVENT_LENGTH),
        )
        inside = sum(
            1
            for v in visits
            if self.EVENT_START <= v.arrival_time < self.EVENT_START + self.EVENT_LENGTH
        )
        expected = self.LEVEL * self.EVENT_LENGTH  # 1 arrival/s, boosted 5x
        assert abs(inside - expected) < 5 * np.sqrt(expected)

    def test_steps_outside_the_window_are_ignored(self):
        proc = SessionProcess(hourly_rate=3600.0)
        plain = proc.schedule(3600.0, np.random.default_rng(3), boost=self._boost)
        stepped = proc.schedule(
            3600.0, np.random.default_rng(3), boost=self._boost, boost_steps=(self.EVENT_START,)
        )
        assert plain == stepped


class TestRevisits:
    def test_revisits_share_user_id(self, rng):
        proc = SessionProcess(hourly_rate=30.0, revisit_probability=0.5)
        visits = proc.schedule(6 * 3600.0, rng)
        by_user = {}
        for v in visits:
            by_user.setdefault(v.user_id, []).append(v)
        multi = [vs for vs in by_user.values() if len(vs) > 1]
        assert multi, "expected at least one returning user"

    def test_revisits_never_overlap(self, rng):
        proc = SessionProcess(hourly_rate=30.0, revisit_probability=0.6)
        visits = proc.schedule(6 * 3600.0, rng)
        by_user = {}
        for v in visits:
            by_user.setdefault(v.user_id, []).append(v)
        for vs in by_user.values():
            vs.sort(key=lambda v: v.arrival_time)
            for prev, cur in zip(vs, vs[1:]):
                assert cur.arrival_time > prev.departure_time

    def test_mean_visits_per_user(self):
        proc = SessionProcess(hourly_rate=10.0, revisit_probability=0.5)
        assert proc.mean_visits_per_user == pytest.approx(2.0)

    def test_visit_volume_scales_with_revisits(self, rng):
        base = SessionProcess(hourly_rate=50.0)
        returning = SessionProcess(hourly_rate=50.0, revisit_probability=0.5)
        n_base = len(base.schedule(12 * 3600.0, np.random.default_rng(2)))
        n_returning = len(returning.schedule(12 * 3600.0, np.random.default_rng(2)))
        assert n_returning > 1.3 * n_base


class TestVisitIterator:
    def test_yields_due_in_order(self):
        visits = [PlannedVisit("b", 20.0, 5.0), PlannedVisit("a", 10.0, 5.0)]
        it = VisitIterator(visits)
        assert [v.user_id for v in it.due(15.0)] == ["a"]
        assert [v.user_id for v in it.due(25.0)] == ["b"]
        assert it.exhausted
