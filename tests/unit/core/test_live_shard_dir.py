"""Live analysis over a shard directory must equal a full recompute.

:class:`~repro.core.LiveAnalyzer` pointed at a directory an
:class:`~repro.trace.RtrcDirAppender` commits rounds into treats every
committed shard file as one part; after each round the merged results
must be bit-for-bit what the serial extractors produce over the whole
committed prefix — on the serial, thread, and process backends (the
process backend memmap-loads the round files themselves, nothing is
re-materialized).
"""

import numpy as np
import pytest

from repro.core import LiveAnalyzer, extract_contacts, losgraph
from repro.core.spatial import zone_occupation
from repro.trace import RtrcDirAppender, Trace, extract_sessions
from tests.unit.core.test_sharded_equivalence import churn_trace

ROUND_COUNTS = (1, 2, 7)
BACKENDS = ("serial", "thread", "process")


def _stream_rounds(appender, trace, rounds):
    """Yield the growing prefix length after each committed round."""
    cols = trace.columns
    edges = np.linspace(0, cols.snapshot_count, rounds + 1).astype(int)
    for lo, hi in zip(edges[:-1], edges[1:]):
        for index in range(int(lo), int(hi)):
            a, b = cols.snapshot_offsets[index], cols.snapshot_offsets[index + 1]
            appender.append_snapshot(
                float(cols.times[index]), cols.names_of(index), cols.xyz[a:b]
            )
        appender.commit()
        yield int(hi)


def _stream_rounds_appender(root, trace, rounds):
    """Like :func:`_stream_rounds`, owning the appender's lifetime."""
    appender = RtrcDirAppender(root, trace.metadata)
    try:
        yield from _stream_rounds(appender, trace, rounds)
    finally:
        appender.close()


@pytest.fixture(scope="module")
def trace():
    return churn_trace(31)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestEquivalence:
    """After 1, 2 and 7 rounds, every analysis matches the oracle."""

    @pytest.mark.parametrize("rounds", ROUND_COUNTS)
    def test_incremental_matches_full_recompute(
        self, tmp_path, trace, rounds, backend
    ):
        root = tmp_path / f"live-{rounds}"
        with RtrcDirAppender(root, trace.metadata) as appender:
            with LiveAnalyzer(root, backend=backend) as live:
                for prefix_len in _stream_rounds(appender, trace, rounds):
                    grown = live.refresh()
                    assert grown > 0
                    oracle = Trace.from_columns(
                        trace.columns.slice_snapshots(0, prefix_len),
                        trace.metadata,
                    )
                    assert live.contacts(15.0) == extract_contacts(oracle, 15.0)
                    assert live.sessions() == extract_sessions(oracle)
                    assert np.array_equal(
                        live.zone_occupation(20.0, 3),
                        zone_occupation(oracle, 20.0, 3),
                    )
                    assert np.array_equal(
                        live.degree_array(15.0, 2),
                        np.asarray(
                            losgraph.degree_samples(oracle, 15.0, 2),
                            dtype=np.int64,
                        ),
                    )
                assert live.part_count == rounds

    def test_all_seven_task_families_after_rounds(self, tmp_path, trace, backend):
        root = tmp_path / "live-families"
        with RtrcDirAppender(root, trace.metadata) as appender:
            with LiveAnalyzer(root, backend=backend) as live:
                for _ in _stream_rounds(appender, trace, 7):
                    live.refresh()
                assert live.contacts(15.0) == extract_contacts(trace, 15.0)
                by_range = live.contacts_multirange((6.0, 80.0))
                for r, contacts in by_range.items():
                    assert contacts == extract_contacts(trace, r)
                assert live.sessions() == extract_sessions(trace)
                assert np.array_equal(
                    live.zone_occupation(20.0, 2), zone_occupation(trace, 20.0, 2)
                )
                assert np.array_equal(
                    live.degree_array(15.0, 2),
                    np.asarray(
                        losgraph.degree_samples(trace, 15.0, 2), dtype=np.int64
                    ),
                )
                assert np.array_equal(
                    live.diameter_array(15.0, 2),
                    np.asarray(
                        losgraph.diameter_series(trace, 15.0, 2), dtype=np.int64
                    ),
                )
                assert np.array_equal(
                    live.clustering_array(15.0, 2),
                    np.asarray(
                        losgraph.clustering_series(trace, 15.0, 2),
                        dtype=np.float64,
                    ),
                )

    def test_late_follower_catches_up_in_one_refresh(self, tmp_path, trace, backend):
        # A follower opening an already-grown directory sees every
        # committed round at once — the backfill case the parallel
        # backends exist for.
        root = tmp_path / "late"
        with RtrcDirAppender(root, trace.metadata) as appender:
            for _ in _stream_rounds(appender, trace, 5):
                pass
        with LiveAnalyzer(root, backend=backend) as live:
            assert live.part_count == 5
            assert live.snapshot_count == len(trace)
            assert live.contacts(15.0) == extract_contacts(trace, 15.0)
            assert live.sessions() == extract_sessions(trace)


class TestIncrementality:
    def test_each_round_extracted_exactly_once(self, tmp_path, trace, monkeypatch):
        import repro.core.parallel as parallel_module

        calls = []
        real = parallel_module.extract_shard_task

        def counting(part, kind, params):
            calls.append((kind, len(part)))
            return real(part, kind, params)

        monkeypatch.setattr(parallel_module, "extract_shard_task", counting)
        root = tmp_path / "count"
        lengths = []
        previous = 0
        with RtrcDirAppender(root, trace.metadata) as appender:
            with LiveAnalyzer(root) as live:
                for prefix_len in _stream_rounds(appender, trace, 4):
                    live.refresh()
                    live.contacts(15.0)
                    live.sessions()
                    lengths.append(prefix_len - previous)
                    previous = prefix_len
        contact_calls = [length for kind, length in calls if kind == "contacts"]
        # One extraction per part, each over only that part's snapshots.
        assert contact_calls == lengths
        assert [l for k, l in calls if k == "sessions"] == lengths

    def test_refresh_without_growth_invalidates_nothing(self, tmp_path, trace):
        root = tmp_path / "idle"
        with RtrcDirAppender(root, trace.metadata) as appender:
            with LiveAnalyzer(root) as live:
                for _ in _stream_rounds(appender, trace, 2):
                    pass
                assert live.refresh() > 0
                first = live.contacts(15.0)
                assert live.refresh() == 0
                assert live.contacts(15.0) is first


class TestEmptyAndContract:
    def test_empty_directory_reports_empty_results(self, tmp_path, trace):
        root = tmp_path / "empty"
        with RtrcDirAppender(root, trace.metadata) as appender:
            with LiveAnalyzer(root) as live:
                assert live.snapshot_count == 0
                assert live.contacts(10.0) == []
                assert live.sessions() == []
                with pytest.raises(ValueError, match="no snapshots"):
                    live.zone_occupation(20.0)
                appender.append_snapshot(0.0, ["a"], [[0.0, 0.0, 0.0]])
                appender.append_snapshot(10.0, ["a"], [[1.0, 0.0, 0.0]])
                appender.commit()
                assert live.refresh() == 2
                assert len(live.sessions()) == 1

    def test_rewritten_shard_file_list_rejected(self, tmp_path, trace):
        from repro.trace.sharding import write_shard_manifest

        root = tmp_path / "mutate"
        with RtrcDirAppender(root, trace.metadata) as appender:
            for _ in _stream_rounds(appender, trace, 3):
                pass
        live = LiveAnalyzer(root)
        # Rewrite the manifest as if an earlier round were renamed.
        write_shard_manifest(
            root, ["shard-99999.rtrc"], [0], [None]
        )
        with pytest.raises(ValueError, match="append-only"):
            live.refresh()
        live.close()

    def test_concurrent_compaction_raises_store_changed_error(self, tmp_path, trace):
        # Regression: a compaction racing a follower used to surface
        # as a bare ValueError traceback from deep inside refresh().
        # It must raise the typed StoreChangedError so long-running
        # consumers (the CLI --follow loop, the query service) can
        # catch it specifically and re-open a fresh follower.
        from repro.core import StoreChangedError
        from repro.trace import compact_shard_dir

        root = tmp_path / "compacted-under"
        with RtrcDirAppender(root, trace.metadata) as appender:
            for _ in _stream_rounds(appender, trace, 3):
                pass
        with LiveAnalyzer(root) as live:
            before = live.contacts(15.0)
            compact_shard_dir(root, 1)
            with pytest.raises(StoreChangedError, match="compact only between"):
                live.refresh()
            # The follower's merged caches survive the refusal.
            assert live.contacts(15.0) == before
        # A fresh follower adopts the compacted directory cleanly.
        with LiveAnalyzer(root) as reopened:
            assert reopened.contacts(15.0) == before

    def test_store_changed_error_is_a_value_error(self):
        # Existing except-ValueError handlers keep working.
        from repro.core import StoreChangedError

        assert issubclass(StoreChangedError, ValueError)

    def test_close_keeps_caches_but_blocks_new_work(self, tmp_path, trace):
        root = tmp_path / "close"
        with RtrcDirAppender(root, trace.metadata) as appender:
            for _ in _stream_rounds(appender, trace, 2):
                pass
        with LiveAnalyzer(root) as live:
            contacts = live.contacts(15.0)
        assert live.contacts(15.0) == contacts == extract_contacts(trace, 15.0)
        with pytest.raises(ValueError, match="closed"):
            live.sessions()
        with pytest.raises(ValueError, match="closed"):
            live.refresh()

    def test_foreign_interners_rejected_on_process_backend(self, tmp_path):
        # Files with independent user tables break the prefix
        # invariant the process backend's payload decode relies on:
        # serial mode stays correct (objects carry their own names),
        # process mode must refuse loudly instead of mis-naming users.
        from repro.trace import write_trace_rtrc
        from repro.trace.columnar import ColumnarBuilder

        root = tmp_path / "foreign"
        root.mkdir()
        for index, user in enumerate(["zoe", "ann"]):
            builder = ColumnarBuilder()
            builder.append_snapshot(
                float(index * 10), [user], [[1.0 * index, 0.0, 0.0]]
            )
            write_trace_rtrc(
                Trace.from_columns(builder.build()),
                root / f"shard-{index:05d}.rtrc",
            )
        serial = LiveAnalyzer(root)
        assert len(serial.sessions()) == 2
        serial.close()
        with pytest.raises(ValueError, match="user table"):
            LiveAnalyzer(root, backend="process")

    def test_follower_does_not_retain_per_round_memmaps(self, tmp_path, trace):
        # A months-long crawl has thousands of rounds; the follower
        # must hold metadata, not one open memmap (fd) per round.
        root = tmp_path / "fdlean"
        with RtrcDirAppender(root, trace.metadata) as appender:
            for _ in _stream_rounds(appender, trace, 5):
                pass
        with LiveAnalyzer(root) as live:
            live.contacts(15.0)
            assert not hasattr(live, "_part_traces")
            assert len(live._part_meta) == 5

    def test_failed_refresh_changes_nothing(self, tmp_path, trace):
        # Two new rounds, the second one unreadable: the refresh must
        # fail without registering the first — a half-applied refresh
        # would serve cached results inconsistent with part_count.
        root = tmp_path / "atomic"
        rounds = iter(_stream_rounds_appender(root, trace, 4))
        next(rounds)  # round 1 committed
        with LiveAnalyzer(root) as live:
            baseline = live.contacts(15.0)
            parts = live.part_count
            snaps = live.snapshot_count
            next(rounds)  # rounds 2 committed
            next(rounds)  # round 3 committed...
            files = sorted(root.glob("shard-*.rtrc"))
            files[-1].unlink()  # ...then its file vanishes
            with pytest.raises(FileNotFoundError):
                live.refresh()
            assert live.part_count == parts
            assert live.snapshot_count == snaps
            assert live.contacts(15.0) == baseline

    def test_process_backend_reuses_round_files(self, tmp_path, trace):
        # Shard-dir parts already live on disk: the scheduler must
        # hand workers the committed round files, not copies.
        root = tmp_path / "reuse"
        with RtrcDirAppender(root, trace.metadata) as appender:
            for _ in _stream_rounds(appender, trace, 4):
                pass
        with LiveAnalyzer(root, backend="process") as live:
            assert live.contacts(15.0) == extract_contacts(trace, 15.0)
            assert live._scheduler.materialized_paths == []
