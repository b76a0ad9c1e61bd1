"""WLAN-style association monitoring (the IMPACT observable).

Campus wireless traces (Hsu & Helmy's IMPACT datasets) never see a
user's coordinates — they see which *access point* the user's device
is associated with, at syslog/SNMP granularity.  This monitor
reproduces that observable over a simulated world: every ``tau``
seconds each avatar within ``association_range`` of some AP is
recorded at that AP's coordinates (nearest AP wins, i.e. ideal
strongest-signal association); avatars out of range of every AP are
simply absent from the snapshot, exactly like a device that
disassociated.

The result is a trace whose positions are drawn from a *discrete* set
of a few hundred points, so the zone-occupation machinery becomes an
AP-popularity histogram and session extraction recovers
association/disassociation episodes — a fundamentally different
geometry from the continuous Second Life traces, exercised through
the same :class:`~repro.monitors.database.TraceDatabase` → analyzer
path.

The monitor itself draws no randomness, so its output is a pure
function of the world realization: a streamed crawl (``sink=``) and a
buffered simulate over the same world seed are bit-for-bit identical
— the PR 4 invariant.
"""

from __future__ import annotations

import numpy as np

from repro.metaverse import World
from repro.monitors.base import Monitor
from repro.monitors.database import TraceDatabase
from repro.trace import Snapshot, Trace, TraceMetadata

#: Default WLAN cell radius, meters — the range within which a device
#: associates with an AP at all.
ASSOCIATION_RANGE = 50.0


class AssociationMonitor(Monitor):
    """Observes nearest-AP associations instead of coordinates.

    Parameters
    ----------
    access_points:
        ``(ap_count, 2)``-shaped array-like of AP ``(x, y)``
        coordinates, meters.  Order is the tie-break: among equidistant
        APs the lowest index wins.
    tau:
        Polling period, seconds (syslog/SNMP cadence).
    association_range:
        Maximum avatar–AP distance for an association, meters.
    sink:
        Optional streaming target (an
        :class:`~repro.trace.RtrcDirAppender`-shaped object).  With a
        sink the monitor is non-buffering: snapshots go to disk as
        they are taken and :meth:`trace` is unavailable — follow the
        sink's store instead.
    """

    def __init__(
        self,
        access_points,
        tau: float = 10.0,
        association_range: float = ASSOCIATION_RANGE,
        name: str = "wlan-association",
        sink=None,
    ) -> None:
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if association_range <= 0:
            raise ValueError(
                f"association range must be positive, got {association_range}"
            )
        aps = np.asarray(access_points, dtype=np.float64)
        if aps.ndim != 2 or aps.shape[1] != 2 or len(aps) == 0:
            raise ValueError(
                f"access_points must be a non-empty (n, 2) array, got shape {aps.shape}"
            )
        self.access_points = aps
        self.tau = float(tau)
        self.association_range = float(association_range)
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
        """One association poll: snap each in-range avatar to its AP."""
        assert self._db is not None, "collect before attach"
        names, coords = world.snapshot_arrays()
        associated_names, ap_coords = self.associate(names, coords)
        self._db.add_snapshot(
            Snapshot.from_arrays(world.now, associated_names, ap_coords)
        )
        self._next_sample += self.tau

    def associate(
        self, names: list[str], coords: np.ndarray
    ) -> tuple[list[str], np.ndarray]:
        """Map avatar coordinates to AP coordinates, dropping roamers.

        Returns the associated user names and an ``(m, 3)`` block of
        their APs' coordinates (z = 0).  Vectorized over the full
        avatar × AP distance matrix — a few hundred APs by a few
        hundred avatars stays tiny.
        """
        if len(names) == 0:
            return [], np.empty((0, 3), dtype=np.float64)
        deltas = coords[:, None, :2] - self.access_points[None, :, :]
        squared = np.einsum("uak,uak->ua", deltas, deltas)
        nearest = np.argmin(squared, axis=1)
        rows = np.arange(len(names))
        in_range = (
            squared[rows, nearest] <= self.association_range * self.association_range
        )
        kept = np.flatnonzero(in_range)
        out = np.zeros((len(kept), 3), dtype=np.float64)
        out[:, :2] = self.access_points[nearest[kept]]
        return [names[i] for i in kept], out

    def trace(self) -> Trace:
        if self._db is None:
            raise RuntimeError("monitor never attached; no trace available")
        return self._db.to_trace()

    def monitor(self, world: World, duration: float) -> Trace:
        """Attach, run ``duration`` seconds of world time, detach, return trace."""
        from repro.monitors.base import run_monitors

        run_monitors(world, [self], duration)
        return self.trace()
