"""Monitor contract and the driver that runs monitors over a world.

A monitor never advances the world clock itself; the driver steps the
world and hands it to each monitor whenever that monitor's next sample
is due.  This lets several monitors (crawler, sensor network, ground
truth) observe the *same realization* of a world, which is how the
architecture-comparison ablation isolates measurement error from
stochastic variation.
"""

from __future__ import annotations

import abc

from repro.metaverse import World
from repro.trace import Snapshot, Trace, TraceMetadata
from repro.monitors.database import TraceDatabase


class Monitor(abc.ABC):
    """Something that periodically observes a world."""

    #: Sampling period in seconds (the paper's τ).
    tau: float

    @abc.abstractmethod
    def attach(self, world: World) -> None:
        """Set up presence on the land (deploy objects, embody avatars)."""

    @abc.abstractmethod
    def detach(self, world: World) -> None:
        """Tear down presence."""

    @abc.abstractmethod
    def next_sample_time(self) -> float:
        """Absolute world time of the next due sample (inf when done)."""

    @abc.abstractmethod
    def collect(self, world: World) -> None:
        """Take one sample from the world."""

    @abc.abstractmethod
    def trace(self) -> Trace:
        """Everything observed so far, as a trace."""


def _advance(world: World, monitors: list[Monitor], end: float) -> None:
    """Step the world to ``end``, sampling every due monitor."""
    while world.now < end - 1e-9:
        world.step()
        for monitor in monitors:
            while monitor.next_sample_time() <= world.now + 1e-9:
                monitor.collect(world)


def run_monitors(
    world: World,
    monitors: list[Monitor],
    duration: float,
) -> None:
    """Advance ``world`` by ``duration`` seconds, sampling on schedule.

    Monitors are attached before the first step and detached after the
    last; each monitor's own ``tau`` decides how often it samples.  A
    monitor whose ``next_sample_time`` returns ``inf`` (e.g. a crashed
    crawler waiting for restart) is simply skipped until it recovers.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    for monitor in monitors:
        monitor.attach(world)
    try:
        _advance(world, monitors, world.now + duration)
    finally:
        for monitor in monitors:
            monitor.detach(world)


def stream_monitors(
    world: World,
    monitors: list[Monitor],
    duration: float,
    round_seconds: float,
):
    """Run monitors in rounds, yielding the clock between rounds.

    The streaming counterpart of :func:`run_monitors`: the world
    advances ``round_seconds`` at a time and the generator yields
    ``world.now`` after each round, handing control back to the caller
    — the crawl loop uses the gap to commit its
    :class:`~repro.trace.RtrcDirAppender` sink and refresh a
    :class:`~repro.core.live.LiveAnalyzer`, so the trace on disk grows
    (and stays analyzable) while the measurement is still running.

    Monitors stay attached across rounds (one continuous measurement,
    not ``duration / round_seconds`` separate ones) and are detached
    when the generator finishes or is closed early.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if round_seconds <= 0:
        raise ValueError(f"round length must be positive, got {round_seconds}")
    for monitor in monitors:
        monitor.attach(world)
    end = world.now + duration
    try:
        while world.now < end - 1e-9:
            _advance(world, monitors, min(world.now + round_seconds, end))
            yield world.now
    finally:
        for monitor in monitors:
            monitor.detach(world)


class GroundTruthMonitor(Monitor):
    """Omniscient reference monitor.

    Reads the world state directly (no avatar, no platform limits, no
    perturbation) at a configurable period — usually the world tick, so
    its trace is the best observable approximation of the underlying
    motion.  Architecture ablations compare crawler and sensor output
    against it.

    Like :class:`~repro.monitors.crawler.Crawler`, an optional
    ``sink`` (an :class:`~repro.trace.RtrcDirAppender`) switches the
    monitor to streaming mode: samples go to disk as they are taken
    and :meth:`trace` is unavailable — follow the sink's file instead.
    """

    def __init__(
        self, tau: float = 1.0, name: str = "ground-truth", sink=None
    ) -> None:
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = float(tau)
        self.name = name
        self.sink = sink
        self._db: TraceDatabase | None = None
        self._next_sample = float("inf")

    def attach(self, world: World) -> None:
        metadata = TraceMetadata(
            land_name=world.land.name,
            width=world.land.width,
            height=world.land.height,
            tau=self.tau,
            source=self.name,
        )
        if self.sink is not None:
            self.sink.metadata = metadata
        self._db = TraceDatabase(
            metadata, sink=self.sink, buffer=self.sink is None
        )
        self._next_sample = world.now + self.tau

    def detach(self, world: World) -> None:
        self._next_sample = float("inf")

    def next_sample_time(self) -> float:
        return self._next_sample

    def collect(self, world: World) -> None:
        assert self._db is not None, "collect before attach"
        self._db.add_snapshot(
            Snapshot.from_arrays(world.now, *world.snapshot_arrays())
        )
        self._next_sample += self.tau

    def trace(self) -> Trace:
        if self._db is None:
            raise RuntimeError("monitor never attached; no trace available")
        return self._db.to_trace()
