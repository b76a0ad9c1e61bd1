"""Arrival and departure of users: the population process.

Unique-visitor counts and mean concurrency — the paper's trace summary
(1568 users / 13 concurrent on Apfel Land, 3347 / 34 on Dance Island,
2656 / 65 on Isle of View) — are produced by two ingredients:

* a *non-homogeneous Poisson* arrival process with a diurnal rate
  profile (virtual worlds breathe with their players' time zones);
* a heavy-tailed session-duration law capped at 4 hours — the paper:
  "the longest log-in time for a user was around 4 hours while 90 % of
  users are logged in for less than 1 hour".

By Little's law the mean concurrency is (arrival rate) x (mean
session), which is how presets are calibrated; see
:mod:`repro.lands.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.stats import LogNormal

#: The paper's observed session-duration cap, seconds (~4 hours).
MAX_SESSION_SECONDS = 4.0 * 3600.0

#: A flat diurnal profile (24 multipliers, one per hour-of-day).
FLAT_PROFILE = (1.0,) * 24

#: A gentle evening-peaked profile typical of entertainment lands.
#: Normalized to mean exactly 1.0 so ``hourly_rate`` stays the true
#: daily average regardless of the shape.
_EVENING_RAW = (
    0.5, 0.4, 0.35, 0.3, 0.3, 0.35,
    0.45, 0.6, 0.7, 0.8, 0.9, 1.0,
    1.05, 1.1, 1.1, 1.15, 1.2, 1.35,
    1.5, 1.7, 1.8, 1.6, 1.2, 0.8,
)
EVENING_PROFILE = tuple(v * 24.0 / sum(_EVENING_RAW) for v in _EVENING_RAW)


@dataclass(frozen=True)
class PlannedVisit:
    """One future login: who arrives, when, and for how long."""

    user_id: str
    arrival_time: float
    duration: float

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError(f"arrival time must be >= 0, got {self.arrival_time}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    @property
    def departure_time(self) -> float:
        """When the user logs out (absent earlier disconnection)."""
        return self.arrival_time + self.duration


class SessionProcess:
    """Generates the visit schedule for a land.

    Parameters
    ----------
    hourly_rate:
        Mean *first* arrivals (new unique users) per hour at profile
        multiplier 1.0.
    session_law:
        Session-duration sampler; defaults to a lognormal capped at
        the 4-hour maximum, with median ~17 min so that ~90 % of
        sessions stay under an hour.
    diurnal_profile:
        24 per-hour multipliers applied cyclically to the base rate.
    user_prefix:
        Identifier prefix (handy when mixing populations, e.g.
        ``"camper"`` vs ``"visitor"``).
    revisit_probability:
        Chance that a user logs in again after a visit ends.  Returning
        users are what produces the long inter-contact times real
        traces show — a pair separated by a logout re-meets only when
        both are back on the land.
    revisit_gap:
        Distribution of the offline gap between a departure and the
        same user's next login, seconds.
    """

    def __init__(
        self,
        hourly_rate: float,
        session_law: LogNormal | None = None,
        diurnal_profile: Sequence[float] = FLAT_PROFILE,
        user_prefix: str = "user",
        revisit_probability: float = 0.0,
        revisit_gap: LogNormal | None = None,
    ) -> None:
        if hourly_rate <= 0:
            raise ValueError(f"hourly rate must be positive, got {hourly_rate}")
        if len(diurnal_profile) != 24:
            raise ValueError(
                f"diurnal profile needs 24 hourly multipliers, got {len(diurnal_profile)}"
            )
        if min(diurnal_profile) < 0:
            raise ValueError("diurnal multipliers must be non-negative")
        if max(diurnal_profile) == 0:
            raise ValueError("diurnal profile cannot be all zeros")
        if not 0.0 <= revisit_probability < 1.0:
            raise ValueError(
                f"revisit probability must be in [0, 1), got {revisit_probability}"
            )
        self.hourly_rate = float(hourly_rate)
        # Median ~13 min, 90th percentile ~51 min, hard cap 4 h —
        # the login-time shape the paper reports in §4.
        self.session_law = session_law or LogNormal(
            mu=np.log(800.0), sigma=1.05, cap=MAX_SESSION_SECONDS
        )
        self.diurnal_profile = tuple(float(m) for m in diurnal_profile)
        self.user_prefix = user_prefix
        self.revisit_probability = float(revisit_probability)
        self.revisit_gap = revisit_gap or LogNormal(
            mu=np.log(2400.0), sigma=0.9, cap=6.0 * 3600.0
        )

    def rate_at(self, t: float) -> float:
        """Instantaneous first-arrival rate (users/second) at time ``t``."""
        hour = int(t // 3600.0) % 24
        return self.hourly_rate * self.diurnal_profile[hour] / 3600.0

    @property
    def peak_rate(self) -> float:
        """Upper bound of the rate function, users/second (for thinning)."""
        return self.hourly_rate * max(self.diurnal_profile) / 3600.0

    def schedule(
        self,
        duration: float,
        rng: np.random.Generator,
        start: float = 0.0,
        boost: "float | Callable[[float], float]" = 1.0,
        serial_start: int = 0,
        boost_steps: Sequence[float] = (),
    ) -> list[PlannedVisit]:
        """All visits of users whose *first* login falls in ``[start, start+duration)``.

        First arrivals are drawn by Lewis-Shedler thinning of the
        diurnal rate multiplied by ``boost``, which is how scheduled
        events inflate arrivals; durations are independent draws from
        the session law; each visit then chains re-visits of the same
        user with ``revisit_probability``.  Sessions may extend past
        the window — the monitor simply stops observing them, exactly
        as the paper's 24 h window truncates real sessions.

        ``boost`` is either a positive constant multiplier (the default
        1.0 leaves the rate as it is) or a function of time.  A function is maximised over 97 evenly
        spaced points of the window plus every time in ``boost_steps``
        that falls inside it; passing the times where the boost steps
        up keeps a boost shorter than the point spacing inside the
        thinning envelope.  A constant gives exactly the visits of the
        function that always returns it, without sampling anything.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        visits: list[PlannedVisit] = []
        end = start + duration
        if callable(boost):
            # The thinning envelope must dominate the boosted rate.
            peak_boost = max(boost(start + s) for s in np.linspace(0, duration, 97))
            for edge in boost_steps:
                if start <= edge <= end:
                    peak_boost = max(peak_boost, boost(edge))
        else:
            level = peak_boost = float(boost)
            if level <= 0:
                raise ValueError(f"a constant boost must be positive, got {boost}")
        envelope = self.peak_rate * peak_boost
        t = start
        serial = serial_start
        while True:
            t += float(rng.exponential(1.0 / envelope))
            if t >= end:
                break
            rate = self.rate_at(t) * (boost(t) if callable(boost) else level)
            if rng.random() * envelope <= rate:
                serial += 1
                user_id = f"{self.user_prefix}-{serial:05d}"
                visits.extend(self._visit_chain(user_id, t, rng))
        visits.sort(key=lambda v: v.arrival_time)
        return visits

    def _visit_chain(
        self,
        user_id: str,
        first_arrival: float,
        rng: np.random.Generator,
    ) -> Iterator[PlannedVisit]:
        """The first visit plus any chained re-visits of one user."""
        arrival = first_arrival
        while True:
            visit = PlannedVisit(
                user_id=user_id,
                arrival_time=arrival,
                duration=float(self.session_law.sample(rng)),
            )
            yield visit
            if rng.random() >= self.revisit_probability:
                return
            arrival = visit.departure_time + float(self.revisit_gap.sample(rng))

    @property
    def mean_visits_per_user(self) -> float:
        """Expected logins per unique user (geometric in the revisit odds)."""
        return 1.0 / (1.0 - self.revisit_probability)

    def expected_unique_users(self, duration: float) -> float:
        """Mean number of unique users first arriving within ``duration``."""
        whole_hours = int(duration // 3600.0)
        remainder = duration - whole_hours * 3600.0
        total = sum(
            self.diurnal_profile[h % 24] for h in range(whole_hours)
        ) * self.hourly_rate
        total += self.diurnal_profile[whole_hours % 24] * self.hourly_rate * (
            remainder / 3600.0
        )
        return total


@dataclass
class VisitIterator:
    """Replay a pre-computed schedule in time order."""

    visits: list[PlannedVisit] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.visits = sorted(self.visits, key=lambda v: v.arrival_time)
        self._cursor = 0

    def due(self, now: float) -> Iterator[PlannedVisit]:
        """Yield every visit whose arrival time has passed."""
        while self._cursor < len(self.visits) and self.visits[self._cursor].arrival_time <= now:
            yield self.visits[self._cursor]
            self._cursor += 1

    @property
    def exhausted(self) -> bool:
        """True when every visit has been yielded."""
        return self._cursor >= len(self.visits)
