"""Live incremental analysis must equal a full recompute, exactly.

:class:`~repro.core.live.LiveAnalyzer` follows a shard directory an
:class:`~repro.trace.RtrcDirAppender` is growing; after every append
round its merged results must be bit-for-bit what the serial
extractors produce over the whole committed prefix.  The per-backend
equivalence, incrementality and compaction cases live in
``test_live_shard_dir.py``; this module keeps the buffer-mode
(``mmap=False``), lazy-backfill, one-shot-export, empty-store and
append-only contract cases, and pins that a single trace file is
refused.
"""

import shutil

import numpy as np
import pytest

from repro.core import LiveAnalyzer, extract_contacts, losgraph
from repro.core.spatial import zone_occupation
from repro.trace import (
    RtrcDirAppender,
    Trace,
    extract_sessions,
    list_rtrc_dir,
    to_rtrc_dir,
    write_trace_rtrc,
)
from repro.trace.columnar import ColumnarBuilder, empty_store
from repro.trace.sharding import read_shard_manifest, write_shard_manifest
from tests.unit.core.test_sharded_equivalence import churn_trace


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


ROUND_COUNTS = (1, 2, 7)


@pytest.fixture(scope="module")
def trace():
    return churn_trace(29)


class TestEquivalence:
    """In buffer mode, after 1, 2 and 7 rounds, every analysis matches."""

    @pytest.mark.parametrize("rounds", ROUND_COUNTS)
    def test_incremental_matches_full_recompute(self, tmp_path, trace, rounds):
        root = tmp_path / f"live-{rounds}"
        with RtrcDirAppender(root, trace.metadata) as appender:
            live = LiveAnalyzer(root, mmap=False)
            for prefix_len in _stream_rounds(appender, trace, rounds):
                assert live.refresh() > 0
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
                        losgraph.degree_samples(oracle, 15.0, 2), dtype=np.int64
                    ),
                )
            assert live.part_count == rounds
            live.close()

    def test_queries_between_rounds_stay_exact(self, tmp_path, trace):
        # A key first requested at round 3 must backfill rounds 1-2;
        # a key requested every round must only extend.
        root = tmp_path / "live-lazy"
        with RtrcDirAppender(root, trace.metadata) as appender:
            live = LiveAnalyzer(root)
            for count, prefix_len in enumerate(
                _stream_rounds(appender, trace, 5), start=1
            ):
                live.refresh()
                oracle = Trace.from_columns(
                    trace.columns.slice_snapshots(0, prefix_len),
                    trace.metadata,
                )
                assert live.contacts(15.0) == extract_contacts(oracle, 15.0)
                if count == 3:
                    assert live.sessions() == extract_sessions(oracle)
            assert live.sessions() == extract_sessions(trace)
            live.close()


class TestEmptyAndLifecycle:
    def test_empty_store_reports_empty_results(self, tmp_path):
        # An export of an empty trace: every shard file holds zero
        # snapshots, so the follower has no parts until a round lands.
        root = tmp_path / "empty"
        to_rtrc_dir(Trace.from_columns(empty_store()), 2, root)
        live = LiveAnalyzer(root)
        assert live.part_count == 0
        assert live.snapshot_count == 0
        assert live.contacts(10.0) == []
        assert live.sessions() == []
        with pytest.raises(ValueError, match="no snapshots"):
            live.zone_occupation(20.0)
        with RtrcDirAppender(root) as appender:
            appender.append_snapshot(0.0, ["a"], [[0.0, 0.0, 0.0]])
            appender.append_snapshot(10.0, ["a"], [[1.0, 0.0, 0.0]])
        assert live.refresh() == 2
        assert live.part_count == 1
        assert len(live.sessions()) == 1
        live.close()

    def test_zero_snapshot_shard_files_add_no_parts(self, tmp_path, trace):
        # More shards than snapshots leaves trailing empty files.
        short = Trace.from_columns(trace.columns.slice_snapshots(0, 3), trace.metadata)
        root = tmp_path / "sparse"
        to_rtrc_dir(short, 5, root)
        assert read_shard_manifest(root)["snapshot_counts"] == [1, 1, 1, 0, 0]
        with LiveAnalyzer(root) as live:
            assert live.part_count == 3
            assert live.snapshot_count == 3
            assert live.contacts(15.0) == extract_contacts(short, 15.0)
            assert live.sessions() == extract_sessions(short)

    def test_existing_store_is_one_initial_part(self, tmp_path, trace):
        root = tmp_path / "t"
        to_rtrc_dir(trace, 1, root)
        live = LiveAnalyzer(root)
        assert live.part_count == 1
        assert live.snapshot_count == len(trace)
        assert live.contacts(15.0) == extract_contacts(trace, 15.0)
        live.close()

    def test_single_file_is_refused_with_guidance(self, tmp_path, trace):
        path = write_trace_rtrc(trace, tmp_path / "t.rtrc")
        with pytest.raises(ValueError, match="TraceAnalyzer") as excinfo:
            LiveAnalyzer(path)
        assert "slmob shard-export" in str(excinfo.value)

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            LiveAnalyzer(tmp_path / "not-yet")


class TestAppendOnlyContract:
    def test_shrunken_store_rejected(self, tmp_path, trace):
        root = tmp_path / "shrink"
        with RtrcDirAppender(root, trace.metadata) as appender:
            for _ in _stream_rounds(appender, trace, 3):
                pass
        live = LiveAnalyzer(root)
        manifest = read_shard_manifest(root)
        # Drop the newest committed round from the manifest.
        write_shard_manifest(
            root,
            manifest["files"][:-1],
            manifest["snapshot_counts"][:-1],
            manifest["time_ranges"][:-1],
            generation=manifest.get("generation", 0),
        )
        assert len(list_rtrc_dir(root)) == 2
        with pytest.raises(ValueError, match="append-only"):
            live.refresh()
        live.close()

    def test_rewritten_history_rejected(self, tmp_path):
        # A new round whose first snapshot lies in the committed past
        # (a producer that restarted its clock) breaks the contract.
        root = tmp_path / "rewrite"
        with RtrcDirAppender(root) as appender:
            for t in (0.0, 10.0, 20.0):
                appender.append_snapshot(t, ["a"], [[t, 0.0, 0.0]])
        live = LiveAnalyzer(root)
        assert live.refresh() == 0  # the opening scan saw all three
        shifted = ColumnarBuilder()
        for t in (15.0, 30.0):
            shifted.append_snapshot(t, ["a"], [[t, 0.0, 0.0]])
        write_trace_rtrc(
            Trace.from_columns(shifted.build()), root / "shard-00001.rtrc"
        )
        manifest = read_shard_manifest(root)
        write_shard_manifest(
            root,
            manifest["files"] + ["shard-00001.rtrc"],
            manifest["snapshot_counts"] + [2],
            manifest["time_ranges"] + [[15.0, 30.0]],
            generation=manifest.get("generation", 0),
        )
        with pytest.raises(ValueError, match="not strictly after"):
            live.refresh()
        assert live.snapshot_count == 3  # the refusal changed nothing
        live.close()

    def test_empty_then_deleted_store_is_an_error(self, tmp_path):
        root = tmp_path / "gone"
        RtrcDirAppender(root).close()
        live = LiveAnalyzer(root)
        shutil.rmtree(root)
        with pytest.raises(FileNotFoundError):
            live.refresh()
        live.close()
