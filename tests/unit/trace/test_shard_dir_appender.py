"""RtrcDirAppender: every committed round is one immutable shard file.

The shard-dir appender is the streaming producer behind parallel live
analysis: rounds buffer in memory, ``commit()`` publishes them as a
new ``shard-*.rtrc`` file plus an atomic manifest swap, and the
directory stays a valid shard dir (loadable by ``read_rtrc_dir``,
concat equal to the one-shot trace) at every commit point.
"""

import json

import numpy as np
import pytest

from repro.trace import (
    RtrcDirAppender,
    StoreChangedError,
    Trace,
    TraceFormatError,
    TraceMetadata,
    compact_shard_dir,
    concat_shards,
    list_rtrc_dir,
    read_rtrc_dir,
    read_shard_manifest,
    read_trace_rtrc,
    to_rtrc_dir,
)
from tests.unit.core.test_sharded_equivalence import churn_trace


def _stream(appender, trace, rounds):
    cols = trace.columns
    edges = np.linspace(0, cols.snapshot_count, rounds + 1).astype(int)
    for lo, hi in zip(edges[:-1], edges[1:]):
        for index in range(int(lo), int(hi)):
            a, b = cols.snapshot_offsets[index], cols.snapshot_offsets[index + 1]
            appender.append_snapshot(
                float(cols.times[index]), cols.names_of(index), cols.xyz[a:b]
            )
        appender.commit()


@pytest.fixture(scope="module")
def trace():
    return churn_trace(37)


class TestCommit:
    def test_each_round_becomes_one_shard_file(self, tmp_path, trace):
        root = tmp_path / "rounds"
        with RtrcDirAppender(root, trace.metadata) as appender:
            _stream(appender, trace, 5)
            assert appender.shard_count == 5
        manifest = read_shard_manifest(root)
        assert manifest["files"] == [f"shard-{i:05d}.rtrc" for i in range(5)]
        assert sum(manifest["snapshot_counts"]) == len(trace)

    def test_concat_load_equals_one_shot_trace(self, tmp_path, trace):
        root = tmp_path / "equal"
        with RtrcDirAppender(root, trace.metadata) as appender:
            _stream(appender, trace, 7)
        loaded = concat_shards(read_rtrc_dir(root))
        assert np.array_equal(loaded.columns.times, trace.columns.times)
        assert np.array_equal(
            loaded.columns.snapshot_offsets, trace.columns.snapshot_offsets
        )
        assert np.array_equal(loaded.columns.user_ids, trace.columns.user_ids)
        assert np.array_equal(loaded.columns.xyz, trace.columns.xyz)
        assert loaded.columns.users.names == trace.columns.users.names
        assert loaded.metadata == trace.metadata

    def test_user_tables_are_prefixes_of_later_rounds(self, tmp_path, trace):
        # Round k's interner must be a prefix of round k+1's, so one
        # (latest) name table decodes ids from every round file.
        root = tmp_path / "prefix"
        with RtrcDirAppender(root, trace.metadata) as appender:
            _stream(appender, trace, 4)
        tables = [
            read_trace_rtrc(root / name).columns.users.names
            for name in list_rtrc_dir(root)
        ]
        for earlier, later in zip(tables, tables[1:]):
            assert later[: len(earlier)] == earlier

    def test_empty_commit_is_a_no_op(self, tmp_path):
        root = tmp_path / "noop"
        with RtrcDirAppender(root) as appender:
            assert appender.commit() is None
            assert appender.shard_count == 0
        assert list_rtrc_dir(root) == []

    def test_fresh_directory_gets_an_empty_manifest(self, tmp_path):
        root = tmp_path / "fresh"
        RtrcDirAppender(root).close()
        manifest = read_shard_manifest(root)
        assert manifest is not None
        assert manifest["files"] == []

    def test_empty_snapshots_stream(self, tmp_path):
        root = tmp_path / "e"
        with RtrcDirAppender(root) as appender:
            appender.append_snapshot(0.0, [], np.empty((0, 3)))
            appender.append_snapshot(10.0, ["solo"], [[1.0, 2.0, 3.0]])
            appender.commit()
            appender.append_snapshot(20.0, [], np.empty((0, 3)))
        loaded = concat_shards(read_rtrc_dir(root))
        assert loaded.concurrency() == [0, 1, 0]

    def test_concurrent_reader_sees_consistent_prefix(self, tmp_path, trace):
        root = tmp_path / "shared"
        half = len(trace) // 2
        appender = RtrcDirAppender(root, trace.metadata)
        _stream(appender, Trace.from_columns(
            trace.columns.slice_snapshots(0, half), trace.metadata
        ), 1)
        reader = concat_shards(read_rtrc_dir(root))  # holds live memmaps
        frozen_times = reader.columns.times.copy()
        frozen_xyz = reader.columns.xyz.copy()

        # Keep committing rounds under the reader.
        _stream(appender, Trace.from_columns(
            trace.columns.slice_snapshots(half, len(trace)), trace.metadata
        ), 3)
        appender.close()

        assert len(reader) == half
        assert np.array_equal(reader.columns.times, frozen_times)
        assert np.array_equal(reader.columns.xyz, frozen_xyz)
        grown = concat_shards(read_rtrc_dir(root)).columns.slice_snapshots(0, half)
        assert np.array_equal(grown.times, frozen_times)
        assert np.array_equal(grown.user_ids, reader.columns.user_ids)
        assert np.array_equal(grown.xyz, frozen_xyz)

    def test_pending_snapshots_survive_only_via_commit(self, tmp_path, trace):
        root = tmp_path / "pending"
        appender = RtrcDirAppender(root, trace.metadata)
        appender.append_snapshot(0.0, ["a"], [[0.0, 0.0, 0.0]])
        assert appender.snapshot_count == 1
        assert appender.committed_snapshot_count == 0
        assert list_rtrc_dir(root) == []
        appender.close()  # close commits the pending round
        assert read_shard_manifest(root)["snapshot_counts"] == [1]


    @pytest.mark.parametrize("rounds", (1, 3, 7))
    def test_streamed_rounds_match_one_shot(self, tmp_path, trace, rounds):
        # The manifest's bookkeeping describes each round file exactly.
        root = tmp_path / f"rounds-{rounds}"
        with RtrcDirAppender(root, trace.metadata) as appender:
            _stream(appender, trace, rounds)
        manifest = read_shard_manifest(root)
        edges = np.linspace(0, len(trace), rounds + 1).astype(int)
        assert manifest["snapshot_counts"] == np.diff(edges).tolist()
        times = trace.columns.times
        assert manifest["time_ranges"] == [
            [float(times[lo]), float(times[hi - 1])]
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        loaded = concat_shards(read_rtrc_dir(root))
        assert np.array_equal(loaded.columns.user_ids, trace.columns.user_ids)
        assert np.array_equal(loaded.columns.xyz, trace.columns.xyz)

    def test_in_memory_load_matches_mmap(self, tmp_path, trace):
        root = tmp_path / "modes"
        with RtrcDirAppender(root, trace.metadata) as appender:
            _stream(appender, trace, 3)
        mapped = concat_shards(read_rtrc_dir(root, mmap=True)).columns
        buffered = concat_shards(read_rtrc_dir(root, mmap=False)).columns
        assert np.array_equal(mapped.times, buffered.times)
        assert np.array_equal(mapped.snapshot_offsets, buffered.snapshot_offsets)
        assert np.array_equal(mapped.user_ids, buffered.user_ids)
        assert np.array_equal(mapped.xyz, buffered.xyz)
        assert mapped.users.names == buffered.users.names

    def test_commit_returns_the_new_shard_path(self, tmp_path):
        root = tmp_path / "returned"
        with RtrcDirAppender(root) as appender:
            appender.append_snapshot(0.0, ["a"], [[0.0, 0.0, 0.0]])
            first = appender.commit()
            appender.append_snapshot(10.0, ["b"], [[1.0, 0.0, 0.0]])
            second = appender.commit()
        assert [first.name, second.name] == read_shard_manifest(root)["files"]
        assert read_trace_rtrc(second).columns.times.tolist() == [10.0]

    def test_uncommitted_appends_are_invisible(self, tmp_path):
        root = tmp_path / "invisible"
        appender = RtrcDirAppender(root)
        appender.append_snapshot(0.0, ["a"], [[0.0, 0.0, 0.0]])
        appender.commit()
        appender.append_snapshot(10.0, ["a", "b"], [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        loaded = concat_shards(read_rtrc_dir(root))
        assert loaded.columns.times.tolist() == [0.0]
        assert loaded.columns.users.names == ["a"]
        appender.commit()
        assert concat_shards(read_rtrc_dir(root)).columns.times.tolist() == [0.0, 10.0]
        appender.close()

    def test_no_temp_litter_after_commits(self, tmp_path, trace):
        root = tmp_path / "tidy"
        with RtrcDirAppender(root, trace.metadata) as appender:
            _stream(appender, trace, 5)
        assert not list(root.glob("*.tmp"))
        assert sorted(p.name for p in root.iterdir()) == sorted(
            list_rtrc_dir(root) + ["manifest.json"]
        )


class TestValidation:
    def test_times_must_increase_across_rounds(self, tmp_path):
        root = tmp_path / "order"
        with RtrcDirAppender(root) as appender:
            appender.append_snapshot(10.0, ["a"], [[0.0, 0.0, 0.0]])
            appender.commit()
            with pytest.raises(ValueError, match="strictly increasing"):
                appender.append_snapshot(10.0, ["a"], [[0.0, 0.0, 0.0]])

    def test_duplicate_user_in_snapshot_rejected(self, tmp_path):
        root = tmp_path / "dup"
        with RtrcDirAppender(root) as appender:
            with pytest.raises(ValueError, match="twice"):
                appender.append_snapshot(
                    0.0, ["a", "a"], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
                )

    def test_non_increasing_time_rejected(self, tmp_path):
        # Within one pending round, too: equal and earlier times.
        root = tmp_path / "order-pending"
        with RtrcDirAppender(root) as appender:
            appender.append_snapshot(5.0, ["a"], [[0.0, 0.0, 0.0]])
            for t in (5.0, 4.0):
                with pytest.raises(ValueError, match="strictly increasing"):
                    appender.append_snapshot(t, ["a"], [[0.0, 0.0, 0.0]])
            assert appender.snapshot_count == 1

    def test_rejected_snapshot_does_not_pollute_the_user_table(self, tmp_path):
        root = tmp_path / "clean-table"
        with RtrcDirAppender(root) as appender:
            appender.append_snapshot(0.0, ["a"], [[0.0, 0.0, 0.0]])
            with pytest.raises(ValueError, match="twice"):
                appender.append_snapshot(
                    1.0, ["ghost", "ghost"], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
                )
            with pytest.raises(ValueError, match="strictly increasing"):
                appender.append_snapshot(0.0, ["phantom"], [[0.0, 0.0, 0.0]])
            assert appender.user_names == ["a"]
            appender.append_snapshot(2.0, ["b"], [[0.0, 0.0, 0.0]])
        assert concat_shards(read_rtrc_dir(root)).columns.users.names == ["a", "b"]

    def test_foreign_file_rejected(self, tmp_path, trace):
        # A one-shot trace file is not a directory to grow.
        path = tmp_path / "one-shot.rtrc"
        path.write_bytes(b"not a directory")
        with pytest.raises(FileExistsError):
            RtrcDirAppender(path)
        assert path.read_bytes() == b"not a directory"

    def test_closed_appender_rejects_appends(self, tmp_path):
        appender = RtrcDirAppender(tmp_path / "closed")
        appender.close()
        with pytest.raises(ValueError, match="closed"):
            appender.append_snapshot(0.0, ["a"], [[0.0, 0.0, 0.0]])
        appender.close()  # idempotent

    def test_commit_after_concurrent_compaction_raises(self, tmp_path):
        # A compaction (or any history rewrite) under a live appender
        # breaks the append-only contract; the commit must raise the
        # typed error instead of publishing a manifest that resurrects
        # the pre-compaction files.
        root = tmp_path / "raced"
        appender = RtrcDirAppender(root)
        appender.append_snapshot(0.0, ["a"], [[0.0, 0.0, 0.0]])
        appender.commit()
        appender.append_snapshot(10.0, ["a"], [[1.0, 0.0, 0.0]])
        appender.commit()
        compact_shard_dir(root, 1)
        appender.append_snapshot(20.0, ["a"], [[2.0, 0.0, 0.0]])
        with pytest.raises(StoreChangedError, match="compacted"):
            appender.commit()
        # The failed commit left no partial round file behind: the
        # directory is exactly the compacted store.
        manifest = read_shard_manifest(root)
        on_disk = sorted(p.name for p in root.iterdir() if p.suffix == ".rtrc")
        assert on_disk == manifest["files"]
        loaded = concat_shards(read_rtrc_dir(root))
        assert loaded.columns.snapshot_count == 2
        # close() flushes through commit, so it surfaces the same
        # conflict instead of silently dropping the pending round.
        with pytest.raises(StoreChangedError, match="compacted"):
            appender.close()

    def test_commit_after_manifest_deletion_raises(self, tmp_path):
        root = tmp_path / "vanished"
        appender = RtrcDirAppender(root)
        appender.append_snapshot(0.0, ["a"], [[0.0, 0.0, 0.0]])
        appender.commit()
        (root / "manifest.json").unlink()
        appender.append_snapshot(10.0, ["a"], [[1.0, 0.0, 0.0]])
        with pytest.raises(StoreChangedError, match="manifest"):
            appender.commit()


class TestReopen:
    def test_reopen_resumes_after_last_committed_round(self, tmp_path, trace):
        root = tmp_path / "resume"
        half = len(trace) // 2
        first = Trace.from_columns(
            trace.columns.slice_snapshots(0, half), trace.metadata
        )
        rest = Trace.from_columns(
            trace.columns.slice_snapshots(half, len(trace)), trace.metadata
        )
        with RtrcDirAppender(root, trace.metadata) as appender:
            _stream(appender, first, 2)
        with RtrcDirAppender(root) as appender:
            assert appender.committed_snapshot_count == half
            assert appender.metadata == trace.metadata
            _stream(appender, rest, 2)
        loaded = concat_shards(read_rtrc_dir(root))
        assert np.array_equal(loaded.columns.times, trace.columns.times)
        assert np.array_equal(loaded.columns.user_ids, trace.columns.user_ids)
        assert loaded.columns.users.names == trace.columns.users.names

    def test_orphan_shard_files_are_recovered_on_reopen(self, tmp_path, trace):
        # A crash between the shard-file write and the manifest swap
        # leaves a file the manifest never mentions; reopening must
        # delete it so its name can be reused.
        root = tmp_path / "orphan"
        with RtrcDirAppender(root, trace.metadata) as appender:
            _stream(appender, trace, 2)
        orphan = root / "shard-00002.rtrc"
        orphan.write_bytes((root / "shard-00001.rtrc").read_bytes())
        appender = RtrcDirAppender(root)
        assert appender.recovered_files == ["shard-00002.rtrc"]
        assert not orphan.exists()
        assert appender.shard_count == 2
        appender.close()

    def test_recovered_clean_store_reports_nothing(self, tmp_path, trace):
        root = tmp_path / "clean"
        with RtrcDirAppender(root, trace.metadata) as appender:
            _stream(appender, trace, 2)
        appender = RtrcDirAppender(root)
        assert appender.recovered_files == []
        assert appender.shard_count == 2
        appender.close()

    def test_truncation_below_committed_data_is_corruption(self, tmp_path, trace):
        # A committed round file cut short is damage, not crash debris:
        # reopening must refuse it rather than drop committed rounds.
        root = tmp_path / "cut"
        with RtrcDirAppender(root, trace.metadata) as appender:
            _stream(appender, trace, 3)
        victim = root / "shard-00001.rtrc"
        size = victim.stat().st_size
        with open(victim, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(TraceFormatError, match="truncated"):
            RtrcDirAppender(root)
        with pytest.raises(TraceFormatError, match="truncated"):
            read_rtrc_dir(root)
        assert read_shard_manifest(root)["files"] == [
            f"shard-{i:05d}.rtrc" for i in range(3)
        ]

    def test_reopen_a_to_rtrc_dir_export_appends_after_it(self, tmp_path, trace):
        root = tmp_path / "export"
        to_rtrc_dir(trace, 3, root)
        with RtrcDirAppender(root) as appender:
            assert appender.committed_snapshot_count == len(trace)
            t = trace.end_time + 10.0
            appender.append_snapshot(t, ["late"], [[1.0, 2.0, 0.0]])
        shards = read_rtrc_dir(root)
        loaded = concat_shards(shards)
        assert len(loaded) == len(trace) + 1
        assert loaded.columns.users.names[-1] == "late"

    def test_unordered_foreign_directory_rejected(self, tmp_path, trace):
        root = tmp_path / "unordered"
        to_rtrc_dir(trace, 2, root)
        manifest = read_shard_manifest(root)
        manifest["files"] = list(reversed(manifest["files"]))
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TraceFormatError, match="strictly after"):
            RtrcDirAppender(root)

    def test_manifest_naming_missing_file_rejected(self, tmp_path, trace):
        root = tmp_path / "missing"
        with RtrcDirAppender(root, trace.metadata) as appender:
            _stream(appender, trace, 2)
        (root / "shard-00000.rtrc").unlink()
        with pytest.raises(TraceFormatError, match="missing shard file"):
            RtrcDirAppender(root)


class TestFsync:
    def test_fsync_commit_round_trips(self, tmp_path, trace):
        # The durability knob: the fsynced path
        # must publish the same bytes (power-loss ordering itself is
        # not observable in a test).
        root = tmp_path / "durable"
        with RtrcDirAppender(root, trace.metadata, fsync=True) as appender:
            _stream(appender, trace, 3)
        loaded = concat_shards(read_rtrc_dir(root))
        assert np.array_equal(loaded.columns.times, trace.columns.times)
        assert np.array_equal(loaded.columns.xyz, trace.columns.xyz)


class TestSinkCompatibility:
    def test_metadata_assignment_like_rtrc_appender(self, tmp_path):
        # Monitors assign sink.metadata on attach; round files written
        # afterwards must carry it.
        root = tmp_path / "meta"
        with RtrcDirAppender(root) as appender:
            appender.metadata = TraceMetadata(land_name="Dance Island", tau=10.0)
            appender.append_snapshot(0.0, ["a"], [[0.0, 0.0, 0.0]])
            appender.commit()
        loaded = read_trace_rtrc(root / "shard-00000.rtrc")
        assert loaded.metadata.land_name == "Dance Island"
