"""Mid-round failures must never publish a torn round.

The streaming loop's durability story: ``stream_monitors`` hands
control back between rounds, the caller commits its
:class:`~repro.trace.RtrcDirAppender` there, and *only* the commit's
manifest swap publishes.  These tests pin what happens when a monitor
blows up in the middle of a round — readers keep seeing exactly the
last committed round, the round file a crash leaves unpublished is
deleted on reopen, and an appender reopened after the failure resumes
from the last committed round to a store bit-for-bit equal to a
never-crashed run.
"""

import numpy as np
import pytest

import repro.trace.sharding as sharding_mod
from repro.lands import dance_island
from repro.monitors import GroundTruthMonitor, Monitor, stream_monitors
from repro.trace import RtrcDirAppender, read_trace, write_trace_rtrc
from tests.unit.core.test_sharded_equivalence import churn_trace


class ExplodingMonitor(Monitor):
    """Samples normally, then raises inside ``collect``."""

    def __init__(self, tau: float, explode_at: int) -> None:
        self.tau = float(tau)
        self.explode_at = explode_at
        self.collected = 0
        self.detached = False
        self._next = float("inf")

    def attach(self, world) -> None:
        self._next = world.now + self.tau

    def detach(self, world) -> None:
        self.detached = True
        self._next = float("inf")

    def next_sample_time(self) -> float:
        return self._next

    def collect(self, world) -> None:
        self.collected += 1
        if self.collected >= self.explode_at:
            raise RuntimeError("probe crashed mid-round")
        self._next += self.tau

    def trace(self):  # pragma: no cover - never queried
        raise NotImplementedError


class _Killed(BaseException):
    """The crawler process died."""


def _abandon(appender: RtrcDirAppender) -> None:
    """Simulate a process crash with a round pending.

    The pending rows live only in the dead process's memory; the
    appender is dropped *without* committing.
    """
    appender._closed = True


def _crash_mid_commit(appender: RtrcDirAppender, monkeypatch) -> None:
    """Simulate a crash between the round-file write and the manifest swap.

    That is the worst state a killed crawler leaves on disk: a complete
    ``shard-*.rtrc`` round file that no manifest names.
    """
    def killed(*args, **kwargs):
        raise _Killed()

    monkeypatch.setattr(sharding_mod, "write_shard_manifest", killed)
    with pytest.raises(_Killed):
        appender.commit()
    monkeypatch.undo()
    _abandon(appender)


class TestStreamMonitorsMidRoundFailure:
    def test_reader_never_sees_the_torn_round(self, tmp_path):
        world = dance_island().build(seed=7, start_time=43200.0)
        path = tmp_path / "crawl"
        sink = RtrcDirAppender(path)
        recorder = GroundTruthMonitor(tau=5.0, sink=sink)
        # 4 samples per 20 s round; the second monitor explodes on its
        # 6th sample — midway through round 2.
        bomb = ExplodingMonitor(tau=5.0, explode_at=6)
        committed = 0
        with pytest.raises(RuntimeError, match="mid-round"):
            for _ in stream_monitors(world, [recorder, bomb], 60.0, 20.0):
                sink.commit()
                committed = sink.committed_snapshot_count
        # Round 1 committed; round 2's partial appends are pending.
        assert committed == 4
        assert sink.snapshot_count > committed
        # A concurrent reader sees exactly the committed prefix.
        assert len(read_trace(path)) == committed
        # Both monitors were detached by the generator's cleanup.
        assert bomb.detached
        assert recorder.next_sample_time() == float("inf")
        _abandon(sink)

    def test_crashed_tail_is_truncated_and_crawl_resumes(self, tmp_path, monkeypatch):
        world = dance_island().build(seed=7, start_time=43200.0)
        path = tmp_path / "crash"
        sink = RtrcDirAppender(path)
        recorder = GroundTruthMonitor(tau=5.0, sink=sink)
        bomb = ExplodingMonitor(tau=5.0, explode_at=6)
        with pytest.raises(RuntimeError):
            for _ in stream_monitors(world, [recorder, bomb], 60.0, 20.0):
                sink.commit()
        last_committed = sink.committed_snapshot_count
        last_time = float(read_trace(path).columns.times[-1])
        _crash_mid_commit(sink, monkeypatch)

        reopened = RtrcDirAppender(path)
        # The unpublished round file was discarded...
        assert len(reopened.recovered_files) == 1
        assert reopened.snapshot_count == last_committed
        assert reopened.last_time == last_time
        # ...and the crawl resumes where the last commit left off.
        recorder2 = GroundTruthMonitor(tau=5.0, sink=reopened)
        for _ in stream_monitors(world, [recorder2], 40.0, 20.0):
            reopened.commit()
        reopened.close()
        resumed = read_trace(path)
        assert len(resumed) == last_committed + 8
        assert np.all(np.diff(resumed.columns.times) > 0)


class TestAppenderMidRoundFailure:
    """The same contract driven directly, pinned bit-for-bit."""

    def test_resumed_store_equals_a_clean_run(self, tmp_path, monkeypatch):
        trace = churn_trace(43)
        cols = trace.columns
        edges = np.linspace(0, cols.snapshot_count, 5).astype(int)

        def rows(index):
            a, b = cols.snapshot_offsets[index], cols.snapshot_offsets[index + 1]
            return float(cols.times[index]), cols.names_of(index), cols.xyz[a:b]

        path = tmp_path / "resume"
        appender = RtrcDirAppender(path, trace.metadata)
        # Rounds 1-2 commit cleanly.
        for index in range(int(edges[2])):
            appender.append_snapshot(*rows(index))
        appender.commit()
        # Round 3 fails midway: some rows written, never committed.
        midway = int((edges[2] + edges[3]) // 2)
        for index in range(int(edges[2]), midway):
            appender.append_snapshot(*rows(index))
        _crash_mid_commit(appender, monkeypatch)

        reopened = RtrcDirAppender(path)
        assert len(reopened.recovered_files) == 1
        assert reopened.snapshot_count == int(edges[2])
        # Replay round 3 in full, then round 4; commit per round.
        for lo, hi in zip(edges[2:-1], edges[3:]):
            for index in range(int(lo), int(hi)):
                reopened.append_snapshot(*rows(index))
            reopened.commit()
        reopened.close()

        resumed = read_trace(path)
        oneshot = read_trace(write_trace_rtrc(trace, tmp_path / "clean.rtrc"))
        assert np.array_equal(resumed.columns.times, oneshot.columns.times)
        assert np.array_equal(
            resumed.columns.snapshot_offsets, oneshot.columns.snapshot_offsets
        )
        assert np.array_equal(resumed.columns.user_ids, oneshot.columns.user_ids)
        assert np.array_equal(resumed.columns.xyz, oneshot.columns.xyz)
        assert resumed.columns.users.names == oneshot.columns.users.names

    def test_failed_snapshot_does_not_intern_phantom_users(self, tmp_path):
        path = tmp_path / "phantom"
        appender = RtrcDirAppender(path)
        appender.append_snapshot(0.0, ["a"], [[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="twice"):
            appender.append_snapshot(
                10.0, ["ghost", "ghost"], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
            )
        appender.commit()
        appender.close()
        assert read_trace(path).columns.users.names == ["a"]
