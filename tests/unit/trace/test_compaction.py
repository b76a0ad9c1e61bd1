"""Compaction must be invisible to readers: same bytes, fewer files.

``compact_shard_dir`` folds many small append-round shards into a
balanced split, and exporting a streamed directory as one ``.rtrc``
file (the ``slmob convert`` route) must give the one-shot file's
bytes; in both cases the loaded store — columns *and* user table —
must be bit-for-bit what it was before.
"""

import gzip
import tracemalloc

import numpy as np
import pytest

from repro.trace import (
    RtrcDirAppender,
    Trace,
    TraceFormatError,
    TraceMetadata,
    compact_shard_dir,
    concat_shards,
    list_rtrc_dir,
    read_rtrc_dir,
    read_shard_manifest,
    read_trace,
    read_trace_rtrc,
    to_rtrc_dir,
    write_trace_rtrc,
)
from repro.trace.columnar import ColumnarBuilder
from tests.unit.core.test_sharded_equivalence import churn_trace


def _stream_dir(root, trace, rounds, metadata=None):
    cols = trace.columns
    edges = np.linspace(0, cols.snapshot_count, rounds + 1).astype(int)
    with RtrcDirAppender(root, metadata or trace.metadata) as appender:
        for lo, hi in zip(edges[:-1], edges[1:]):
            for index in range(int(lo), int(hi)):
                a, b = cols.snapshot_offsets[index], cols.snapshot_offsets[index + 1]
                appender.append_snapshot(
                    float(cols.times[index]), cols.names_of(index), cols.xyz[a:b]
                )
            appender.commit()


def _assert_stores_equal(a: Trace, b: Trace) -> None:
    assert np.array_equal(a.columns.times, b.columns.times)
    assert np.array_equal(a.columns.snapshot_offsets, b.columns.snapshot_offsets)
    assert np.array_equal(a.columns.user_ids, b.columns.user_ids)
    assert np.array_equal(a.columns.xyz, b.columns.xyz)
    assert a.columns.users.names == b.columns.users.names
    assert a.metadata == b.metadata


@pytest.fixture(scope="module")
def trace():
    return churn_trace(41)


class TestShardDirCompaction:
    @pytest.mark.parametrize("k", (1, 2, 7))
    def test_compacted_dir_loads_bit_for_bit(self, tmp_path, trace, k):
        root = tmp_path / f"dir-{k}"
        _stream_dir(root, trace, 9)
        before = concat_shards(read_rtrc_dir(root))
        paths = compact_shard_dir(root, k)
        assert len(paths) == k
        after = concat_shards(read_rtrc_dir(root))
        _assert_stores_equal(before, after)
        _assert_stores_equal(trace, after)

    def test_compaction_balances_and_removes_round_files(self, tmp_path, trace):
        root = tmp_path / "balance"
        _stream_dir(root, trace, 9)
        compact_shard_dir(root, 3)
        manifest = read_shard_manifest(root)
        assert len(manifest["files"]) == 3
        counts = manifest["snapshot_counts"]
        assert sum(counts) == len(trace)
        assert max(counts) - min(counts) <= 1  # the even split
        # Only the compacted generation (plus the manifest) survives.
        on_disk = sorted(p.name for p in root.iterdir())
        assert on_disk == sorted(manifest["files"] + ["manifest.json"])

    def test_generation_names_never_collide_across_compactions(
        self, tmp_path, trace
    ):
        root = tmp_path / "gens"
        _stream_dir(root, trace, 5)
        compact_shard_dir(root, 2)
        assert read_shard_manifest(root)["generation"] == 1
        compact_shard_dir(root, 2)
        manifest = read_shard_manifest(root)
        assert manifest["generation"] == 2
        assert all(".g2." in name for name in manifest["files"])
        _assert_stores_equal(trace, concat_shards(read_rtrc_dir(root)))

    def test_compacted_dir_accepts_further_appends(self, tmp_path, trace):
        root = tmp_path / "then-append"
        _stream_dir(root, trace, 6)
        compact_shard_dir(root, 2)
        with RtrcDirAppender(root) as appender:
            t = trace.end_time + 10.0
            appender.append_snapshot(t, ["late"], [[0.0, 0.0, 0.0]])
        loaded = concat_shards(read_rtrc_dir(root))
        assert len(loaded) == len(trace) + 1

    def test_compacting_a_to_rtrc_dir_export(self, tmp_path, trace):
        root = tmp_path / "export"
        to_rtrc_dir(trace, 7, root)
        compact_shard_dir(root, 2)
        _assert_stores_equal(trace, concat_shards(read_rtrc_dir(root)))

    def test_gzip_compaction(self, tmp_path, trace):
        root = tmp_path / "gz"
        _stream_dir(root, trace, 4)
        paths = compact_shard_dir(root, 2, gzip_shards=True)
        assert all(p.suffix == ".gz" for p in paths)
        _assert_stores_equal(trace, concat_shards(read_rtrc_dir(root)))

    def test_empty_directory_rejected(self, tmp_path):
        root = tmp_path / "empty"
        RtrcDirAppender(root).close()
        with pytest.raises(TraceFormatError, match="no shard files"):
            compact_shard_dir(root, 2)

    def test_interrupted_compaction_leaves_old_view_loadable(
        self, tmp_path, trace, monkeypatch
    ):
        # Simulate a crash after the new generation's files are written
        # but before the manifest swap: the directory must still load
        # as the *old* view, and the next appender cleans the orphans.
        import repro.trace.sharding as sharding_mod

        root = tmp_path / "crash"
        _stream_dir(root, trace, 4)
        before = concat_shards(read_rtrc_dir(root))

        boom = RuntimeError("power loss")

        def exploding(*args, **kwargs):
            raise boom

        monkeypatch.setattr(sharding_mod, "write_shard_manifest", exploding)
        with pytest.raises(RuntimeError, match="power loss"):
            compact_shard_dir(root, 2)
        monkeypatch.undo()

        _assert_stores_equal(before, concat_shards(read_rtrc_dir(root)))
        appender = RtrcDirAppender(root)
        assert sorted(appender.recovered_files) == [
            "shard-00000.g1.rtrc",
            "shard-00001.g1.rtrc",
        ]
        appender.close()
        assert sorted(list_rtrc_dir(root)) == sorted(
            f"shard-{i:05d}.rtrc" for i in range(4)
        )


def _grid_trace(snapshots: int, users: int) -> Trace:
    names = [f"user-{k:03d}" for k in range(users)]
    xyz = np.arange(users * 3, dtype=np.float64).reshape(users, 3)
    builder = ColumnarBuilder()
    for step in range(snapshots):
        builder.append_snapshot(float(step), names, xyz + step)
    return Trace.from_columns(builder.build(), TraceMetadata(tau=1.0))


class TestStreamingCompactor:
    """The streaming path is pinned byte-for-byte to the materializing one."""

    @pytest.mark.parametrize("batch", (1, 3, 4096))
    def test_file_bytes_match_materializing_oracle(self, tmp_path, trace, batch):
        streamed = tmp_path / f"stream-{batch}"
        oracle = tmp_path / f"oracle-{batch}"
        _stream_dir(streamed, trace, 7)
        _stream_dir(oracle, trace, 7)
        compact_shard_dir(streamed, 3, batch_snapshots=batch)
        compact_shard_dir(oracle, 3, batch_snapshots=None)
        manifest = read_shard_manifest(streamed)
        assert manifest == read_shard_manifest(oracle)
        for name in manifest["files"]:
            assert (streamed / name).read_bytes() == (oracle / name).read_bytes()

    def test_gzip_payload_matches_materializing_oracle(self, tmp_path, trace):
        # The gzip container embeds an mtime, so only the decompressed
        # stream can be (and is) identical.
        streamed = tmp_path / "stream-gz"
        oracle = tmp_path / "oracle-gz"
        _stream_dir(streamed, trace, 5)
        _stream_dir(oracle, trace, 5)
        compact_shard_dir(streamed, 2, gzip_shards=True, batch_snapshots=3)
        compact_shard_dir(oracle, 2, gzip_shards=True, batch_snapshots=None)
        manifest = read_shard_manifest(streamed)
        assert manifest == read_shard_manifest(oracle)
        for name in manifest["files"]:
            assert gzip.decompress((streamed / name).read_bytes()) == (
                gzip.decompress((oracle / name).read_bytes())
            )

    def test_peak_memory_bounded_by_batch_not_directory(self, tmp_path):
        # ~2.6 MiB of payload in 8 round files; the streaming pass with
        # a 64-snapshot batch must never hold more than a small multiple
        # of one batch, while the materializing oracle holds everything.
        trace = _grid_trace(snapshots=1600, users=50)
        payload = trace.columns.xyz.nbytes + trace.columns.user_ids.nbytes
        batch = 64
        batch_bytes = (payload * batch) // 1600

        streamed = tmp_path / "stream"
        _stream_dir(streamed, trace, 8)
        tracemalloc.start()
        compact_shard_dir(streamed, 2, batch_snapshots=batch)
        _, peak_streaming = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        oracle = tmp_path / "oracle"
        _stream_dir(oracle, trace, 8)
        tracemalloc.start()
        compact_shard_dir(oracle, 2, batch_snapshots=None)
        _, peak_materializing = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert peak_materializing > payload  # the oracle really holds it all
        # Headroom: per-file offset tables, the user table, and one
        # in-flight chunk copy — but nowhere near the whole directory.
        assert peak_streaming < 8 * batch_bytes + 256 * 1024
        assert peak_streaming * 4 < peak_materializing

        manifest = read_shard_manifest(streamed)
        assert manifest == read_shard_manifest(oracle)
        for name in manifest["files"]:
            assert (streamed / name).read_bytes() == (oracle / name).read_bytes()


class TestSingleFileExport:
    def test_streamed_dir_exports_bytes_identical(self, tmp_path, trace):
        # One round per snapshot: the most fragmented directory a
        # crawl can leave.  Its single-file export equals a one-shot
        # write byte for byte.
        root = tmp_path / "grown"
        _stream_dir(root, trace, len(trace))
        exported = write_trace_rtrc(read_trace(root), tmp_path / "export.rtrc")
        _assert_stores_equal(trace, read_trace_rtrc(exported))
        oneshot = write_trace_rtrc(trace, tmp_path / "oneshot.rtrc")
        assert exported.read_bytes() == oneshot.read_bytes()
