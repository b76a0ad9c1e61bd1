"""The external crawler — the architecture the paper adopts.

Built on ``libsecondlife``, the authors' crawler logs in as a regular
user and uses the map feature to read the position of every avatar on
the land at period τ = 10 s.  Three behaviours from §2/§3 are
reproduced faithfully:

* **full coverage** — unlike sensors, the crawler sees the whole land
  and is "not confined by limitations imposed by private lands";
* **perturbation & mimicry** — a naive (silent, motionless) crawler
  attracts users and distorts the measurement; the mimicking crawler
  wanders randomly and broadcasts canned chat phrases, so users treat
  it as just another avatar;
* **instability** — "long experiments are sometimes affected by
  instabilities of libsecondlife"; an optional crash model produces
  the sampling gaps the trace validator flags.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Position
from repro.metaverse import Avatar, ChatMessage, World
from repro.mobility import RandomWaypoint, StaticModel
from repro.monitors.base import Monitor
from repro.monitors.database import TraceDatabase
from repro.trace import Snapshot, Trace, TraceMetadata
from repro.metaverse.chat import DEFAULT_PHRASES

#: The paper's snapshot period.
DEFAULT_TAU = 10.0


class Crawler(Monitor):
    """A headless SL client that snapshots every avatar on the land.

    Parameters
    ----------
    tau:
        Sampling period in seconds (τ = 10 s in the paper).
    mimic:
        When True (the paper's final design) the crawler's avatar
        wanders the land and chats, avoiding the attraction
        perturbation.  When False it stands silent in the middle of
        the land and *is* conspicuous.
    crash_probability:
        Chance per sample that the client crashes (libsecondlife
        instability).  Zero by default.
    restart_delay:
        Seconds a crashed client needs before sampling resumes.
    seed:
        Seed for the crawler's own RNG (chat phrase choice, crashes) —
        independent from the world's RNG so enabling mimicry does not
        change the world realization.
    name:
        The crawler avatar's user id on the land.
    sink:
        Optional :class:`~repro.trace.RtrcDirAppender` (or anything with
        its ``append_snapshot`` shape).  When given, the crawler runs
        in *streaming* mode: every snapshot goes to the sink as it is
        taken, nothing is buffered in RAM, and :meth:`trace` is
        unavailable — read the sink's growing ``.rtrc`` store instead
        (``slmob crawl`` follows it with a
        :class:`~repro.core.live.LiveAnalyzer`).  Committing the sink
        is the caller's choice of durability cadence.
    """

    def __init__(
        self,
        tau: float = DEFAULT_TAU,
        mimic: bool = True,
        crash_probability: float = 0.0,
        restart_delay: float = 120.0,
        chat_interval: float = 90.0,
        seed: int = 12061,
        name: str = "crawler",
        sink=None,
    ) -> None:
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if not 0.0 <= crash_probability <= 1.0:
            raise ValueError(
                f"crash probability must be in [0, 1], got {crash_probability}"
            )
        if restart_delay <= 0:
            raise ValueError(f"restart delay must be positive, got {restart_delay}")
        if chat_interval <= 0:
            raise ValueError(f"chat interval must be positive, got {chat_interval}")
        self.tau = float(tau)
        self.mimic = bool(mimic)
        self.crash_probability = float(crash_probability)
        self.restart_delay = float(restart_delay)
        self.chat_interval = float(chat_interval)
        self.name = name
        self.sink = sink
        self._rng = np.random.default_rng(seed)
        self._db: TraceDatabase | None = None
        self._avatar: Avatar | None = None
        self._next_sample = float("inf")
        self._next_chat = 0.0
        self.crashes = 0

    # -- monitor interface ------------------------------------------------

    def attach(self, world: World) -> None:
        """Log in: embody the crawler avatar and start the sample clock."""
        land = world.land
        metadata = TraceMetadata(
            land_name=land.name,
            width=land.width,
            height=land.height,
            tau=self.tau,
            source="crawler-mimic" if self.mimic else "crawler-naive",
        )
        if self.sink is not None:
            # The sink learns the land only now; the metadata lands in
            # the store header at its next commit.
            self.sink.metadata = metadata
        self._db = TraceDatabase(
            metadata, sink=self.sink, buffer=self.sink is None
        )
        if self.mimic:
            model = RandomWaypoint(
                land.width, land.height, min_pause=10.0, max_pause=60.0
            )
        else:
            model = StaticModel(
                land.width,
                land.height,
                anchor=Position(land.width / 2.0, land.height / 2.0),
            )
        self._avatar = Avatar(
            user_id=self.name,
            model=model,
            position=model.initial_position(self._rng),
            login_time=world.now,
        )
        world.add_observer(self._avatar, conspicuous=not self.mimic)
        self._next_sample = world.now + self.tau
        self._next_chat = world.now + self.chat_interval

    def detach(self, world: World) -> None:
        """Log out and stop sampling."""
        if self._avatar is not None:
            world.remove_observer(self._avatar.user_id)
            self._avatar.logout()
            self._avatar = None
        self._next_sample = float("inf")

    def next_sample_time(self) -> float:
        return self._next_sample

    def collect(self, world: World) -> None:
        """Take one snapshot; possibly chat; possibly crash."""
        assert self._db is not None, "collect before attach"
        if self.crash_probability > 0.0 and self._rng.random() < self.crash_probability:
            # libsecondlife died; skip samples until the restart lands.
            self.crashes += 1
            missed = int(np.ceil(self.restart_delay / self.tau))
            self._next_sample += missed * self.tau
            return
        self._db.add_snapshot(
            Snapshot.from_arrays(world.now, *world.snapshot_arrays())
        )
        self._next_sample += self.tau
        if self.mimic and world.now >= self._next_chat and self._avatar is not None:
            phrase = DEFAULT_PHRASES[int(self._rng.integers(len(DEFAULT_PHRASES)))]
            world.chat.post(
                ChatMessage(world.now, self.name, phrase, self._avatar.position)
            )
            self._next_chat = world.now + self.chat_interval

    def trace(self) -> Trace:
        """The measurement so far (buffered mode only).

        A streaming crawler keeps nothing in RAM — load the sink's
        ``.rtrc`` store (or point a ``LiveAnalyzer`` at it) instead.
        """
        if self._db is None:
            raise RuntimeError("crawler never attached; no trace available")
        return self._db.to_trace()

    # -- convenience --------------------------------------------------------

    def monitor(self, world: World, duration: float) -> Trace:
        """Attach, run ``duration`` seconds of world time, detach, return trace."""
        from repro.monitors.base import run_monitors

        run_monitors(world, [self], duration)
        return self.trace()
