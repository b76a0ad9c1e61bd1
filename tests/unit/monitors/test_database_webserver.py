"""Unit tests for repro.monitors.database and repro.monitors.webserver."""

import pytest

from repro.geometry import Position
from repro.monitors import TraceDatabase, WebServer
from repro.trace import PositionRecord, Snapshot, TraceMetadata


class TestTraceDatabase:
    def test_add_record(self):
        db = TraceDatabase()
        assert db.add_record(PositionRecord(0.0, "a", 1, 2, 0))
        assert db.record_count == 1

    def test_duplicate_key_ignored(self):
        db = TraceDatabase()
        db.add_record(PositionRecord(0.0, "a", 1, 2, 0))
        assert not db.add_record(PositionRecord(0.0, "a", 9, 9, 0))
        assert db.record_count == 1
        assert db.duplicate_writes == 1
        # First write wins.
        assert db.observations_of("a")[0].x == 1.0

    def test_same_user_different_times_ok(self):
        db = TraceDatabase()
        db.add_record(PositionRecord(0.0, "a", 1, 1, 0))
        db.add_record(PositionRecord(10.0, "a", 2, 2, 0))
        assert db.record_count == 2

    def test_add_snapshot(self):
        db = TraceDatabase()
        inserted = db.add_snapshot(
            Snapshot(5.0, {"a": Position(1, 1), "b": Position(2, 2)})
        )
        assert inserted == 2
        assert db.snapshot_count == 1

    def test_empty_snapshot_keeps_timestamp(self):
        # "The land was empty at t" is data; dropping it would bias
        # mean concurrency upward on sparse lands.
        db = TraceDatabase()
        assert db.add_snapshot(Snapshot(5.0, {})) == 0
        assert db.snapshot_count == 1
        trace = db.to_trace()
        assert len(trace) == 1
        assert trace.mean_concurrency() == 0.0

    def test_users(self):
        db = TraceDatabase()
        db.add_record(PositionRecord(0.0, "a", 1, 1, 0))
        db.add_record(PositionRecord(5.0, "b", 1, 1, 0))
        assert db.users() == {"a", "b"}

    def test_observations_sorted(self):
        db = TraceDatabase()
        db.add_record(PositionRecord(10.0, "a", 2, 2, 0))
        db.add_record(PositionRecord(0.0, "a", 1, 1, 0))
        times = [r.time for r in db.observations_of("a")]
        assert times == [0.0, 10.0]

    def test_between(self):
        db = TraceDatabase()
        for t in (0.0, 10.0, 20.0, 30.0):
            db.add_record(PositionRecord(t, "a", 1, 1, 0))
        snaps = db.between(10.0, 20.0)
        assert [s.time for s in snaps] == [10.0, 20.0]

    def test_to_trace_carries_metadata(self):
        meta = TraceMetadata(land_name="L", tau=5.0)
        db = TraceDatabase(meta)
        db.add_record(PositionRecord(0.0, "a", 1, 1, 0))
        trace = db.to_trace()
        assert trace.metadata.land_name == "L"
        assert len(trace) == 1

    def test_export_rtrc(self, tmp_path):
        import numpy as np

        from repro.trace import read_trace_rtrc

        meta = TraceMetadata(land_name="L", tau=5.0)
        db = TraceDatabase(meta)
        db.add_snapshot(Snapshot(0.0, {"a": Position(1, 2, 0), "b": Position(3, 4, 0)}))
        db.add_snapshot(Snapshot(5.0, {}))  # empty snapshot is data too
        path = db.export_rtrc(tmp_path / "db.rtrc")
        loaded = read_trace_rtrc(path)
        expected = db.to_trace()
        assert loaded.metadata == meta
        assert np.array_equal(loaded.columns.times, expected.columns.times)
        assert np.array_equal(loaded.columns.xyz, expected.columns.xyz)
        assert loaded.concurrency() == [2, 0]


class TestStreamingDatabase:
    """Unbuffered mode forwards snapshots to a sink and keeps nothing."""

    def _streaming_db(self, tmp_path):
        from repro.trace import RtrcDirAppender

        sink = RtrcDirAppender(tmp_path / "stream")
        return TraceDatabase(TraceMetadata(), sink=sink, buffer=False), sink

    def test_snapshots_flow_to_the_sink(self, tmp_path):
        db, sink = self._streaming_db(tmp_path)
        db.add_snapshot(Snapshot(0.0, {"a": Position(1, 2), "b": Position(3, 4)}))
        db.add_snapshot(Snapshot(10.0, {"a": Position(5, 6)}))
        assert db.snapshot_count == 2
        assert db.record_count == 3
        assert db.users() == {"a", "b"}
        assert sink.snapshot_count == 2
        sink.close()
        from repro.trace import read_trace

        assert len(read_trace(sink.directory)) == 2

    def test_to_trace_points_at_the_sink(self, tmp_path):
        db, sink = self._streaming_db(tmp_path)
        with pytest.raises(ValueError, match="sink"):
            db.to_trace()
        sink.close()

    def test_per_record_writes_rejected(self, tmp_path):
        db, sink = self._streaming_db(tmp_path)
        with pytest.raises(ValueError, match="buffer"):
            db.add_record(PositionRecord(0.0, "a", 1.0, 2.0))
        sink.close()

    def test_unbuffered_without_sink_rejected(self):
        with pytest.raises(ValueError, match="sink"):
            TraceDatabase(TraceMetadata(), buffer=False)

    def test_buffered_with_sink_keeps_both(self, tmp_path):
        from repro.trace import RtrcDirAppender, read_trace

        sink = RtrcDirAppender(tmp_path / "both")
        db = TraceDatabase(TraceMetadata(), sink=sink)
        db.add_snapshot(Snapshot(0.0, {"a": Position(1, 2)}))
        sink.close()
        assert db.to_trace().columns.snapshot_count == 1
        assert len(read_trace(sink.directory)) == 1


class TestStreamingMonitors:
    def test_crawler_sink_streams_the_measurement(self, tmp_path):
        import numpy as np

        from repro.lands import dance_island
        from repro.monitors import Crawler
        from repro.trace import RtrcDirAppender, read_trace

        preset = dance_island()
        # Two identical world realizations: one crawled buffered, one
        # streamed to disk.
        world_buffered = preset.build(seed=5, start_time=43200.0)
        trace_via_buffer = Crawler(tau=10.0).monitor(world_buffered, 120.0)

        world_streamed = preset.build(seed=5, start_time=43200.0)
        sink = RtrcDirAppender(tmp_path / "crawl")
        crawler = Crawler(tau=10.0, sink=sink)
        from repro.monitors import run_monitors

        run_monitors(world_streamed, [crawler], 120.0)
        sink.close()
        streamed = read_trace(sink.directory)
        assert np.array_equal(
            streamed.columns.times, trace_via_buffer.columns.times
        )
        assert np.array_equal(
            streamed.columns.user_ids, trace_via_buffer.columns.user_ids
        )
        assert np.array_equal(streamed.columns.xyz, trace_via_buffer.columns.xyz)
        assert streamed.metadata == trace_via_buffer.metadata
        with pytest.raises(ValueError, match="sink"):
            crawler.trace()

    def test_stream_monitors_yields_between_rounds(self, tmp_path):
        from repro.lands import dance_island
        from repro.monitors import GroundTruthMonitor, stream_monitors
        from repro.trace import RtrcDirAppender, read_trace

        preset = dance_island()
        world = preset.build(seed=2, start_time=43200.0)
        sink = RtrcDirAppender(tmp_path / "gt")
        monitor = GroundTruthMonitor(tau=5.0, sink=sink)
        commits = []
        for now in stream_monitors(world, [monitor], 60.0, 20.0):
            sink.commit()
            commits.append(read_trace(sink.directory).columns.snapshot_count)
        sink.close()
        assert len(commits) == 3
        # Every yield exposed a strictly larger committed prefix.
        assert commits == sorted(commits) and commits[-1] == 12
        assert read_trace(sink.directory).metadata.source == "ground-truth"

    def test_stream_monitors_validates_rounds(self):
        from repro.lands import dance_island
        from repro.monitors import GroundTruthMonitor, stream_monitors

        world = dance_island().build(seed=1)
        with pytest.raises(ValueError, match="round"):
            list(stream_monitors(world, [GroundTruthMonitor()], 10.0, 0.0))


class TestWebServer:
    def test_accepts_within_budget(self):
        server = WebServer(max_requests_per_minute=2)
        assert server.try_request(0.0, 10)
        assert server.try_request(1.0, 10)
        assert server.stats.accepted_requests == 2
        assert server.stats.records_received == 20

    def test_rejects_over_budget(self):
        server = WebServer(max_requests_per_minute=2)
        server.try_request(0.0, 1)
        server.try_request(1.0, 1)
        assert not server.try_request(2.0, 1)
        assert server.stats.rejected_requests == 1

    def test_window_slides(self):
        server = WebServer(max_requests_per_minute=1)
        assert server.try_request(0.0, 1)
        assert not server.try_request(30.0, 1)
        assert server.try_request(61.0, 1)

    def test_max_records_per_request(self):
        server = WebServer(body_limit_bytes=2048)
        assert server.max_records_per_request(40) == 51
        assert server.max_records_per_request(4096) == 1  # at least one

    def test_requests_in_window_evicts_expired(self):
        # Regression: the window count used to include expired
        # timestamps — only try_request trimmed the deque, so an idle
        # server kept reporting a full window forever.
        server = WebServer(max_requests_per_minute=3)
        for t in (0.0, 1.0, 2.0):
            assert server.try_request(t, 1)
        assert server.requests_in_window(2.0) == 3
        assert server.requests_in_window(61.5) == 1  # only t=2.0 survives
        assert server.requests_in_window(120.0) == 0

    def test_requests_in_window_idle_server_frees_budget(self):
        server = WebServer(max_requests_per_minute=1)
        assert server.try_request(0.0, 1)
        assert server.requests_in_window(30.0) == 1
        # After the window slides past the only entry, the reported
        # load and the admission decision must agree.
        assert server.requests_in_window(61.0) == 0
        assert server.try_request(61.0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            WebServer(max_requests_per_minute=0)
        with pytest.raises(ValueError):
            WebServer(body_limit_bytes=0)
        with pytest.raises(ValueError):
            WebServer().max_records_per_request(0)
