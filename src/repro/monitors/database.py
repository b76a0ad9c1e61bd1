"""The measurement database.

The paper stores crawler output "in a database that can be queried
through an interactive web application".  This class is that database:
monitors write observations in, analysts pull a
:class:`~repro.trace.Trace` (or targeted queries) out.

Observations are deduplicated on ``(time, user)`` because overlapping
sensors legitimately report the same avatar twice; the first write
wins, matching an INSERT-IGNORE key constraint.

Streaming mode
--------------

The paper's crawler ran for *days*; holding every observation in the
write buffer does not scale to that.  Constructed with a ``sink`` (an
:class:`~repro.trace.RtrcDirAppender` or anything with its
``append_snapshot(time, names, coords)`` shape) and ``buffer=False``,
the database forwards each whole snapshot to the sink as it arrives
and retains only counters — the trace lives on disk, growing with the
crawl, and analysts follow it with
:class:`~repro.core.live.LiveAnalyzer` instead of calling
:meth:`TraceDatabase.to_trace`.  Per-record writes (the sensor-network
path, which needs cross-sensor dedup inside one timestamp) require the
buffer and are rejected in streaming mode.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Position
from pathlib import Path

from repro.trace import (
    ColumnarBuilder,
    PositionRecord,
    Snapshot,
    Trace,
    TraceMetadata,
    write_trace_rtrc,
)


class TraceDatabase:
    """Accumulates observations and materializes traces.

    Parameters
    ----------
    metadata:
        Trace metadata stamped onto everything this database emits.
    sink:
        Optional streaming target; every :meth:`add_snapshot` is
        forwarded to ``sink.append_snapshot(time, names, coords)``.
        Durability (committing the sink) stays with the caller — the
        crawl loop decides the commit cadence.
    buffer:
        Keep observations in memory (the default).  With ``False``
        the database is a pure pass-through to ``sink``:
        :meth:`to_trace` and per-record writes raise, counters and
        metadata still work.
    """

    def __init__(
        self,
        metadata: TraceMetadata | None = None,
        sink=None,
        buffer: bool = True,
    ) -> None:
        if not buffer and sink is None:
            raise ValueError("an unbuffered database needs a sink to write to")
        self.metadata = metadata or TraceMetadata()
        self.sink = sink
        self.buffered = bool(buffer)
        self._by_time: dict[float, dict[str, Position]] = {}
        self._duplicate_writes = 0
        self._streamed_snapshots = 0
        self._streamed_records = 0

    # -- writes -----------------------------------------------------------

    def add_record(self, record: PositionRecord) -> bool:
        """Insert one observation; returns False for a duplicate key."""
        if not self.buffered:
            raise ValueError(
                "per-record writes need the in-memory buffer for "
                "(time, user) dedup; stream whole snapshots instead"
            )
        bucket = self._by_time.setdefault(record.time, {})
        if record.user in bucket:
            self._duplicate_writes += 1
            return False
        bucket[record.user] = record.position
        return True

    def add_snapshot(self, snapshot: Snapshot) -> int:
        """Insert a whole snapshot; returns the number of new rows.

        An empty snapshot still creates its timestamp: "the monitor
        looked and the land was empty" is data — dropping it would
        overstate mean concurrency on sparse lands.

        With a ``sink`` the deduplicated snapshot is also forwarded as
        arrays (:meth:`~repro.trace.Snapshot.as_arrays` — free for
        snapshots the monitors build via ``from_arrays``).
        """
        if not self.buffered:
            names, coords = snapshot.as_arrays()
            self.sink.append_snapshot(snapshot.time, names, coords)
            self._streamed_snapshots += 1
            self._streamed_records += len(names)
            return len(names)
        self._by_time.setdefault(snapshot.time, {})
        inserted = 0
        for record in snapshot.records():
            if self.add_record(record):
                inserted += 1
        if self.sink is not None:
            names, coords = snapshot.as_arrays()
            self.sink.append_snapshot(snapshot.time, names, coords)
            self._streamed_snapshots += 1
            self._streamed_records += len(names)
        return inserted

    # -- reads --------------------------------------------------------------

    @property
    def record_count(self) -> int:
        """Total stored (or, unbuffered, streamed) observations."""
        if not self.buffered:
            return self._streamed_records
        return sum(len(bucket) for bucket in self._by_time.values())

    @property
    def duplicate_writes(self) -> int:
        """How many writes hit the ``(time, user)`` key constraint."""
        return self._duplicate_writes

    @property
    def snapshot_count(self) -> int:
        """Number of distinct observation timestamps."""
        if not self.buffered:
            return self._streamed_snapshots
        return len(self._by_time)

    def users(self) -> set[str]:
        """Every user id with at least one observation."""
        if not self.buffered:
            return set(self.sink.user_names)
        seen: set[str] = set()
        for bucket in self._by_time.values():
            seen.update(bucket)
        return seen

    def observations_of(self, user: str) -> list[PositionRecord]:
        """Time-ordered observations of one user."""
        rows = [
            PositionRecord(t, user, pos.x, pos.y, pos.z)
            for t, bucket in self._by_time.items()
            if user in bucket
            for pos in [bucket[user]]
        ]
        rows.sort(key=lambda r: r.time)
        return rows

    def between(self, start: float, end: float) -> list[Snapshot]:
        """Snapshots with ``start <= time <= end``, time-ordered."""
        times = sorted(t for t in self._by_time if start <= t <= end)
        return [Snapshot(t, self._by_time[t]) for t in times]

    def to_trace(self) -> Trace:
        """Materialize everything as an immutable columnar trace.

        Rows go straight into flat arrays — the dict-of-dicts write
        buffer is never exploded into per-record objects.  An
        unbuffered (streaming) database holds nothing to materialize:
        load the sink's ``.rtrc`` file instead.
        """
        if not self.buffered:
            raise ValueError(
                "streaming database keeps no buffer; read the sink's "
                ".rtrc store (read_trace_rtrc / LiveAnalyzer) instead"
            )
        builder = ColumnarBuilder()
        for t in sorted(self._by_time):
            bucket = self._by_time[t]
            coords = np.empty((len(bucket), 3), dtype=np.float64)
            for i, pos in enumerate(bucket.values()):
                coords[i, 0] = pos.x
                coords[i, 1] = pos.y
                coords[i, 2] = pos.z
            builder.append_snapshot(t, list(bucket), coords)
        return Trace.from_columns(builder.build(), self.metadata)

    def export_rtrc(self, path: str | Path) -> Path:
        """Dump the database as a binary columnar ``.rtrc`` file.

        The write buffer goes straight through the columnar build into
        raw array sections; analysts then ``np.memmap`` the result
        instead of re-querying (and re-parsing) the database.
        """
        return write_trace_rtrc(self.to_trace(), path)
