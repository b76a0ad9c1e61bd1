"""Unit tests for the binary columnar ``.rtrc`` trace format."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.trace import (
    Trace,
    TraceMetadata,
    random_walk_trace,
    read_store_rtrc,
    read_trace_rtrc,
    write_trace_rtrc,
)
from repro.trace.columnar import ColumnarBuilder, empty_store
from repro.trace.io import read_trace
from repro.trace.storage import (
    ALIGNMENT,
    MAGIC,
    RtrcFormatError,
    TraceFormatError,
    _align,
    _PREAMBLE,
)


def _assert_stores_equal(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.snapshot_offsets, b.snapshot_offsets)
    assert np.array_equal(a.user_ids, b.user_ids)
    assert np.array_equal(a.xyz, b.xyz)
    assert a.users.names == b.users.names


class TestRoundTrip:
    def test_random_walk_round_trip(self, tmp_path):
        trace = random_walk_trace(12, 30, np.random.default_rng(3))
        path = write_trace_rtrc(trace, tmp_path / "walk.rtrc")
        loaded = read_trace_rtrc(path)
        _assert_stores_equal(trace.columns, loaded.columns)
        assert loaded.metadata == trace.metadata

    def test_metadata_survives(self, tmp_path):
        meta = TraceMetadata(
            land_name="Dance Island", width=128.0, height=64.0,
            tau=2.5, source="crawler", notes="unicode ✓ comma, quote\"",
        )
        builder = ColumnarBuilder()
        builder.append_snapshot(0.0, ["a", "b"], [[1, 2, 0], [3, 4, 5]])
        trace = Trace.from_columns(builder.build(), meta)
        loaded = read_trace_rtrc(write_trace_rtrc(trace, tmp_path / "m.rtrc"))
        assert loaded.metadata == meta

    def test_empty_trace(self, tmp_path):
        trace = Trace.from_columns(empty_store())
        loaded = read_trace_rtrc(write_trace_rtrc(trace, tmp_path / "e.rtrc"))
        assert len(loaded) == 0
        assert loaded.columns.observation_count == 0

    def test_empty_snapshots_survive(self, tmp_path):
        builder = ColumnarBuilder()
        builder.append_snapshot(0.0, [], np.empty((0, 3)))
        builder.append_snapshot(10.0, ["solo"], [[5.0, 5.0, 0.0]])
        builder.append_snapshot(20.0, [], np.empty((0, 3)))
        trace = Trace.from_columns(builder.build())
        loaded = read_trace_rtrc(write_trace_rtrc(trace, tmp_path / "s.rtrc"))
        _assert_stores_equal(trace.columns, loaded.columns)
        assert loaded.concurrency() == [0, 1, 0]

    def test_gzip_round_trip(self, tmp_path):
        trace = random_walk_trace(5, 10, np.random.default_rng(1))
        path = write_trace_rtrc(trace, tmp_path / "walk.rtrc.gz")
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"  # actually gzipped
        _assert_stores_equal(trace.columns, read_trace_rtrc(path).columns)

    def test_rewrite_onto_own_memmap_source(self, tmp_path):
        # A memmapped trace written back to its own backing file must
        # not truncate the pages it is still reading from (the write
        # goes to a temp sibling and renames into place).
        trace = random_walk_trace(6, 15, np.random.default_rng(8))
        path = write_trace_rtrc(trace, tmp_path / "self.rtrc")
        loaded = read_trace_rtrc(path, mmap=True)
        write_trace_rtrc(loaded, path)
        again = read_trace_rtrc(path, mmap=True)
        _assert_stores_equal(trace.columns, again.columns)
        assert not list(tmp_path.glob("*.tmp"))  # no temp litter

    def test_written_file_honors_umask(self, tmp_path):
        # The temp-file dance must not leak mkstemp's 0600 mode; the
        # result should match what a plain open() would have created.
        trace = random_walk_trace(3, 4, np.random.default_rng(0))
        rtrc = write_trace_rtrc(trace, tmp_path / "perm.rtrc")
        plain = tmp_path / "plain"
        plain.write_bytes(b"x")
        assert (rtrc.stat().st_mode & 0o777) == (plain.stat().st_mode & 0o777)

    def test_in_memory_load_matches_mmap(self, tmp_path):
        trace = random_walk_trace(6, 12, np.random.default_rng(9))
        path = write_trace_rtrc(trace, tmp_path / "w.rtrc")
        mapped, meta_a = read_store_rtrc(path, mmap=True)
        buffered, meta_b = read_store_rtrc(path, mmap=False)
        _assert_stores_equal(mapped, buffered)
        assert meta_a == meta_b


class TestMemmapSemantics:
    def test_mmap_load_is_lazy_view(self, tmp_path):
        trace = random_walk_trace(8, 20, np.random.default_rng(5))
        path = write_trace_rtrc(trace, tmp_path / "w.rtrc")
        store, _ = read_store_rtrc(path, mmap=True)
        for column in (store.times, store.user_ids, store.xyz):
            backing = column
            while not isinstance(backing, np.memmap) and getattr(backing, "base", None) is not None:
                backing = backing.base
            assert isinstance(backing, np.memmap)

    def test_mmap_columns_are_read_only(self, tmp_path):
        trace = random_walk_trace(4, 6, np.random.default_rng(2))
        path = write_trace_rtrc(trace, tmp_path / "w.rtrc")
        store, _ = read_store_rtrc(path, mmap=True)
        with pytest.raises((ValueError, RuntimeError)):
            store.xyz[0, 0] = 99.0

    def test_sections_are_aligned(self, tmp_path):
        trace = random_walk_trace(4, 6, np.random.default_rng(2))
        path = write_trace_rtrc(trace, tmp_path / "w.rtrc")
        import json
        import struct

        raw = path.read_bytes()
        _, _, _, hlen = struct.unpack_from("<4sHHQ", raw)
        header = json.loads(raw[16:16 + hlen])
        for spec in header["sections"].values():
            assert spec["offset"] % ALIGNMENT == 0


class TestErrors:
    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not.rtrc"
        path.write_bytes(b"time,user,x,y,z\n0.0,a,1,2,3\n")
        with pytest.raises(RtrcFormatError, match="bad magic"):
            read_trace_rtrc(path)

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.rtrc"
        path.write_bytes(MAGIC)
        with pytest.raises(RtrcFormatError, match="truncated"):
            read_trace_rtrc(path, mmap=False)

    def test_rejects_future_version(self, tmp_path):
        trace = random_walk_trace(3, 4, np.random.default_rng(0))
        path = write_trace_rtrc(trace, tmp_path / "v.rtrc")
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # bump the version field
        path.write_bytes(bytes(raw))
        with pytest.raises(RtrcFormatError, match="version"):
            read_trace_rtrc(path)

    def test_rejects_corrupt_header(self, tmp_path):
        trace = random_walk_trace(3, 4, np.random.default_rng(0))
        path = write_trace_rtrc(trace, tmp_path / "c.rtrc")
        raw = bytearray(path.read_bytes())
        raw[20] = 0xFF  # stomp the JSON header
        path.write_bytes(bytes(raw))
        with pytest.raises(RtrcFormatError):
            read_trace_rtrc(path)


def _rewrite_header(path, mutate):
    """Re-serialize a valid rtrc file with a mutated JSON header.

    The data region is carried over untouched, so these tests corrupt
    exactly one thing: what the header *claims* about the data.
    """
    import json
    import struct

    raw = path.read_bytes()
    magic, version, reserved, hlen = _PREAMBLE.unpack_from(raw)
    data_start = _align(_PREAMBLE.size + hlen)
    header = json.loads(raw[_PREAMBLE.size:_PREAMBLE.size + hlen])
    result = mutate(header)
    header = header if result is None else result
    payload = json.dumps(header).encode("utf-8")
    new_start = _align(_PREAMBLE.size + len(payload))
    out = _PREAMBLE.pack(magic, version, reserved, len(payload))
    out += payload
    out += b"\0" * (new_start - _PREAMBLE.size - len(payload))
    out += raw[data_start:]
    path.write_bytes(out)


class TestCorruption:
    """Broken files must fail with a clear error, never a numpy traceback."""

    @pytest.fixture
    def valid(self, tmp_path):
        trace = random_walk_trace(6, 8, np.random.default_rng(11))
        return write_trace_rtrc(trace, tmp_path / "v.rtrc")

    @pytest.mark.parametrize("mmap", (True, False))
    def test_truncated_data_region(self, valid, mmap):
        import os

        raw = valid.read_bytes()
        _, _, _, hlen = _PREAMBLE.unpack_from(raw)
        data_start = _align(_PREAMBLE.size + hlen)
        os.truncate(valid, data_start + 16)  # cut into the times section
        with pytest.raises(RtrcFormatError, match="truncated"):
            read_trace_rtrc(valid, mmap=mmap)

    @pytest.mark.parametrize("mmap", (True, False))
    def test_header_longer_than_file(self, valid, mmap):
        import os

        os.truncate(valid, _PREAMBLE.size + 4)
        with pytest.raises(RtrcFormatError, match="truncated"):
            read_trace_rtrc(valid, mmap=mmap)

    @pytest.mark.parametrize("mmap", (True, False))
    def test_section_nbytes_mismatch(self, valid, mmap):
        def lie(header):
            header["sections"]["xyz"]["nbytes"] += 8

        _rewrite_header(valid, lie)
        with pytest.raises(RtrcFormatError, match="length mismatch"):
            read_trace_rtrc(valid, mmap=mmap)

    @pytest.mark.parametrize("mmap", (True, False))
    def test_section_shape_lie(self, valid, mmap):
        # Previously this surfaced as a numpy reshape/memmap traceback.
        def lie(header):
            header["sections"]["xyz"]["shape"][0] += 3

        _rewrite_header(valid, lie)
        with pytest.raises(RtrcFormatError, match="length mismatch"):
            read_trace_rtrc(valid, mmap=mmap)

    def test_missing_section_entry(self, valid):
        def drop(header):
            del header["sections"]["times"]

        _rewrite_header(valid, drop)
        with pytest.raises(RtrcFormatError, match="misses sections"):
            read_trace_rtrc(valid)

    def test_invalid_section_offset(self, valid):
        def skew(header):
            header["sections"]["user_ids"]["offset"] = 13  # unaligned

        _rewrite_header(valid, skew)
        with pytest.raises(RtrcFormatError, match="invalid offset"):
            read_trace_rtrc(valid)

    def test_non_object_header(self, valid):
        _rewrite_header(valid, lambda header: ["not", "an", "object"])
        with pytest.raises(RtrcFormatError, match="not a JSON object"):
            read_trace_rtrc(valid)

    def test_bad_metadata_fields(self, valid):
        def poison(header):
            header["metadata"]["tau"] = -1.0

        _rewrite_header(valid, poison)
        with pytest.raises(RtrcFormatError, match="metadata"):
            read_trace_rtrc(valid)

    def test_inconsistent_columns_wrapped(self, valid):
        # Sections that load fine but do not form a valid store (the
        # offsets column no longer spans the observation rows).
        def shrink(header):
            spec = header["sections"]["snapshot_offsets"]
            spec["shape"] = [spec["shape"][0] - 2]
            spec["nbytes"] -= 16

        _rewrite_header(valid, shrink)
        with pytest.raises(RtrcFormatError, match="valid trace"):
            read_trace_rtrc(valid)

    def test_errors_share_the_trace_format_base(self, valid):
        assert issubclass(RtrcFormatError, TraceFormatError)
        assert issubclass(TraceFormatError, ValueError)
        valid.write_bytes(b"garbage that is definitely not rtrc")
        with pytest.raises(TraceFormatError):
            read_trace(valid)


class TestAppendableLayoutCompat:
    """Stores written by the retired appendable single-file writer still load.

    ``data/appendable_v1.rtrc`` was written snapshot by snapshot by
    that writer: three committed rounds (an empty snapshot, users
    joining and leaving) with capacity left for 16 snapshots and 64
    rows, so its header is padded with spaces, carries an ``"append"``
    capacity record, and its sections sit at capacity offsets with
    unused bytes between them.  The digest below was taken from the
    writer's own load of the file.
    """

    PATH = Path(__file__).parent / "data" / "appendable_v1.rtrc"
    COLUMN_DIGEST = "fc507007842e75ce49495db9b7304314fbd1bf16cd158a9f31e209d196a8d128"
    METADATA = TraceMetadata(
        land_name="Appendable Compat",
        width=256.0,
        height=256.0,
        tau=10.0,
        source="crawler",
        notes="written by RtrcAppender",
    )

    @staticmethod
    def _digest(store) -> str:
        h = hashlib.sha256()
        for arr in (store.times, store.snapshot_offsets, store.user_ids, store.xyz):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(json.dumps(list(store.users.names)).encode())
        return h.hexdigest()

    def test_fixture_has_the_appendable_layout(self):
        raw = self.PATH.read_bytes()
        _, _, _, header_length = _PREAMBLE.unpack_from(raw)
        header_text = raw[_PREAMBLE.size:_PREAMBLE.size + header_length].decode()
        assert header_text.endswith(" ")  # padded reserve
        header = json.loads(header_text)
        assert header["append"] == {
            "snapshot_capacity": 16, "observation_capacity": 64,
        }
        offsets = [header["sections"][name]["offset"] for name in
                   ("times", "snapshot_offsets", "user_ids", "xyz")]
        # Sections sit at capacity offsets, not packed after each other.
        assert offsets == [0, 128, 320, 832]

    @pytest.mark.parametrize("mmap", [True, False])
    def test_loads_bit_for_bit(self, mmap):
        store, metadata = read_store_rtrc(self.PATH, mmap=mmap)
        assert self._digest(store) == self.COLUMN_DIGEST
        assert metadata == self.METADATA
        assert store.users.names == ["alice", "bob", "carol", "dave", "erin"]
        assert store.times.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert store.snapshot_offsets.tolist() == [0, 2, 5, 5, 7, 10]
