"""Streaming ingestion: appender vs full rewrite, live vs full re-analysis.

Two claims of the streaming layer (PR 4) are measured:

1. **Append cost** — both strategies consume the same stream of
   ``(time, names, coords)`` snapshots.  Committing a crawl round
   through :class:`~repro.trace.RtrcDirAppender` writes only that
   round's rows as one shard file plus the manifest; the batch
   pipeline's alternative —
   accumulate in a :class:`~repro.trace.ColumnarBuilder` and rewrite
   the whole file each round so the trace on disk stays current —
   rebuilds and rewrites the entire prefix every time, O(R) vs
   O(R²/2) bytes over R rounds.
2. **Analysis cost** — after each commit,
   :class:`~repro.core.live.LiveAnalyzer` extracts contacts over only
   the newly committed round file and re-merges, where a fresh
   :class:`~repro.core.analyzer.TraceAnalyzer` re-extracts the whole
   prefix.

Runs two ways:

* ``pytest benchmarks/bench_append_ingest.py -s`` — the assertion
  harness at reduced scale with conservative floors;
* ``PYTHONPATH=src python benchmarks/bench_append_ingest.py`` — the
  full table at 1M observations (the numbers recorded in CHANGES.md).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import LiveAnalyzer, TraceAnalyzer
from repro.trace import ColumnarBuilder, RtrcDirAppender, Trace, write_trace_rtrc
from repro.trace.columnar import ColumnarStore, UserInterner

#: Full-run workload: 500 snapshots x 2000 users = 1M observations.
FULL_SNAPSHOTS, FULL_USERS = 500, 2000

#: Crawl rounds the stream is split into.
ROUNDS = 10

#: Contact range for the analysis comparison.
RADIUS = 10.0

#: Floors for the pytest harness (full-run numbers are higher; these
#: only catch a fall back to quadratic behaviour).  The append floor
#: is modest because at pytest scale the per-round file and manifest
#: writes weigh more than the rewritten prefix they save.  The
#: analysis floor narrowed when the run-length kernels made the
#: full-recompute baseline ~4x faster (the incremental path saves
#: re-extraction, which now costs less): ~1.3x measured, floor 1.1.
APPEND_SPEEDUP_FLOOR = 1.3
ANALYSIS_SPEEDUP_FLOOR = 1.1


def _trace(snapshots: int, users: int) -> Trace:
    rng = np.random.default_rng(snapshots * 31 + users)
    times = np.arange(snapshots, dtype=np.float64) * 10.0
    offsets = np.arange(snapshots + 1, dtype=np.int64) * users
    ids = np.tile(np.arange(users, dtype=np.int64), snapshots)
    xyz = rng.uniform(0.0, 256.0, size=(snapshots * users, 3))
    store = ColumnarStore(
        times, offsets, ids, xyz, UserInterner(f"u{i:05d}" for i in range(users))
    )
    return Trace.from_columns(store)


def _round_edges(snapshots: int, rounds: int) -> np.ndarray:
    return np.linspace(0, snapshots, rounds + 1).astype(int)


def _snapshot_feed(trace: Trace) -> list[tuple[float, list[str], np.ndarray]]:
    """The crawl as a stream of ``(time, names, coords)`` snapshots."""
    cols = trace.columns
    feed = []
    for index in range(cols.snapshot_count):
        lo, hi = cols.snapshot_offsets[index], cols.snapshot_offsets[index + 1]
        feed.append((float(cols.times[index]), cols.names_of(index), cols.xyz[lo:hi]))
    return feed


def _stream_round(appender: RtrcDirAppender, feed, lo: int, hi: int) -> None:
    for t, names, coords in feed[lo:hi]:
        appender.append_snapshot(t, names, coords)


def measure_append(trace: Trace, rounds: int, tmp) -> dict[str, float]:
    """Seconds to persist ``rounds`` crawl rounds, both strategies."""
    edges = _round_edges(len(trace), rounds)
    feed = _snapshot_feed(trace)

    t0 = time.perf_counter()
    with RtrcDirAppender(tmp / "stream", trace.metadata) as appender:
        for lo, hi in zip(edges[:-1], edges[1:]):
            _stream_round(appender, feed, int(lo), int(hi))
            appender.commit()
    t_append = time.perf_counter() - t0

    t0 = time.perf_counter()
    builder = ColumnarBuilder()
    for lo, hi in zip(edges[:-1], edges[1:]):
        for t, names, coords in feed[int(lo):int(hi)]:
            builder.append_snapshot(t, names, coords)
        prefix = Trace.from_columns(builder.build(), trace.metadata)
        write_trace_rtrc(prefix, tmp / "rewrite.rtrc")
    t_rewrite = time.perf_counter() - t0

    return {
        "append_s": t_append,
        "rewrite_s": t_rewrite,
        "speedup": t_rewrite / t_append,
    }


def measure_analysis(trace: Trace, rounds: int, tmp) -> dict[str, float]:
    """Seconds of per-round contact analysis, incremental vs full."""
    edges = _round_edges(len(trace), rounds)
    feed = _snapshot_feed(trace)
    path = tmp / "live"

    t_live = 0.0
    t_full = 0.0
    with RtrcDirAppender(path, trace.metadata) as appender:
        live = LiveAnalyzer(path)
        for lo, hi in zip(edges[:-1], edges[1:]):
            _stream_round(appender, feed, int(lo), int(hi))
            appender.commit()

            t0 = time.perf_counter()
            live.refresh()
            incremental = live.contacts(RADIUS)
            t_live += time.perf_counter() - t0

            prefix = Trace.from_columns(
                trace.columns.slice_snapshots(0, int(hi)), trace.metadata
            )
            t0 = time.perf_counter()
            full = TraceAnalyzer(prefix).contacts(RADIUS)
            t_full += time.perf_counter() - t0
            assert incremental == full, "incremental analysis diverged"
        live.close()

    return {
        "live_s": t_live,
        "full_s": t_full,
        "speedup": t_full / t_live,
    }


def test_append_beats_full_rewrite(tmp_path):
    # Enough rounds for the O(R) vs O(R^2/2) byte counts to separate.
    trace = _trace(240, 400)  # 96k observations
    row = measure_append(trace, 24, tmp_path)
    assert row["speedup"] >= APPEND_SPEEDUP_FLOOR, (
        f"streaming appends only {row['speedup']:.1f}x faster than "
        f"per-round full rewrites (floor: {APPEND_SPEEDUP_FLOOR:.1f}x)"
    )


def test_incremental_analysis_beats_recompute(tmp_path):
    trace = _trace(120, 300)
    row = measure_analysis(trace, 8, tmp_path)
    assert row["speedup"] >= ANALYSIS_SPEEDUP_FLOOR, (
        f"live analysis only {row['speedup']:.1f}x faster than full "
        f"recomputes (floor: {ANALYSIS_SPEEDUP_FLOOR:.1f}x)"
    )


def test_streamed_store_loads_identically(tmp_path):
    from repro.trace import read_trace

    trace = _trace(40, 50)
    edges = _round_edges(len(trace), 4)
    feed = _snapshot_feed(trace)
    with RtrcDirAppender(tmp_path / "s", trace.metadata) as appender:
        for lo, hi in zip(edges[:-1], edges[1:]):
            _stream_round(appender, feed, int(lo), int(hi))
            appender.commit()
    loaded = read_trace(tmp_path / "s")
    assert np.array_equal(loaded.columns.times, trace.columns.times)
    assert np.array_equal(loaded.columns.xyz, trace.columns.xyz)


def main() -> None:
    import tempfile
    from pathlib import Path

    trace = _trace(FULL_SNAPSHOTS, FULL_USERS)
    rows = trace.columns.observation_count
    print(
        f"streaming ingestion at {rows} observations, {ROUNDS} rounds "
        f"(r={RADIUS:g} m)"
    )
    with tempfile.TemporaryDirectory() as tmp:
        append = measure_append(trace, ROUNDS, Path(tmp))
    print(
        f"persist   : appender {append['append_s']:8.3f}s   "
        f"per-round rewrite {append['rewrite_s']:8.3f}s   "
        f"= {append['speedup']:.1f}x"
    )
    with tempfile.TemporaryDirectory() as tmp:
        analysis = measure_analysis(trace, ROUNDS, Path(tmp))
    print(
        f"analysis  : live     {analysis['live_s']:8.3f}s   "
        f"full recompute    {analysis['full_s']:8.3f}s   "
        f"= {analysis['speedup']:.1f}x"
    )


if __name__ == "__main__":
    main()
