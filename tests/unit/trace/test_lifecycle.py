"""The storage lifecycle: policy, slack, tiering and retention.

``CompactionPolicy`` makes a long-running :class:`RtrcDirAppender`
self-maintaining — compaction, tiering and retention fire between
commits and the appender re-adopts each swapped manifest.  These tests
pin the policy semantics, the age thresholds and the generation bumps
followers key on.
"""

import numpy as np
import pytest

from repro.trace import (
    CompactionPolicy,
    RtrcDirAppender,
    StoreChangedError,
    compact_shard_dir,
    concat_shards,
    list_rtrc_dir,
    read_rtrc_dir,
    read_shard_manifest,
    retain_shard_dir,
    shard_dir_generation,
    shard_dir_slack,
    tier_shard_dir,
)
from tests.unit.core.test_sharded_equivalence import churn_trace
from tests.unit.trace.test_compaction import _assert_stores_equal, _stream_dir


@pytest.fixture(scope="module")
def trace():
    return churn_trace(37)


def _round_dir(tmp_path, name, rounds=6, snaps_per_round=3, users=2):
    """A fresh appender directory: ``rounds`` files, 10 s per snapshot."""
    root = tmp_path / name
    t = 0.0
    with RtrcDirAppender(root) as appender:
        for _ in range(rounds):
            for _ in range(snaps_per_round):
                t += 10.0
                names = [f"u{k}" for k in range(users)]
                appender.append_snapshot(t, names, np.full((users, 3), t))
            appender.commit()
    return root


class TestCompactionPolicy:
    def test_all_thresholds_unset_rejected(self):
        with pytest.raises(ValueError, match="at least one threshold"):
            CompactionPolicy()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_round_files": 0}, "max_round_files"),
            ({"max_slack_fraction": 1.0}, "max_slack_fraction"),
            ({"max_slack_fraction": -0.1}, "max_slack_fraction"),
            ({"max_round_files": 4, "target_shards": 0}, "target_shards"),
            ({"max_round_files": 4, "batch_snapshots": 0}, "batch_snapshots"),
            ({"tier_after": -1.0}, "tier_after"),
            ({"retain_for": -1.0}, "retain_for"),
        ],
    )
    def test_invalid_thresholds_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            CompactionPolicy(**kwargs)

    def test_compaction_due(self):
        policy = CompactionPolicy(max_round_files=4, max_slack_fraction=0.5)
        assert not policy.compaction_due(4, 0.5)
        assert policy.compaction_due(5, 0.0)
        assert policy.compaction_due(1, 0.51)

    def test_file_count_trigger_folds_directory(self, tmp_path, trace):
        root = tmp_path / "auto"
        policy = CompactionPolicy(max_round_files=3)
        cols = trace.columns
        with RtrcDirAppender(root, trace.metadata, policy=policy) as appender:
            for index in range(cols.snapshot_count):
                a, b = (
                    cols.snapshot_offsets[index],
                    cols.snapshot_offsets[index + 1],
                )
                appender.append_snapshot(
                    float(cols.times[index]), cols.names_of(index), cols.xyz[a:b]
                )
                appender.commit()
        # Never more than max_round_files + the round that tripped it.
        assert len(list_rtrc_dir(root)) <= 4
        assert shard_dir_generation(root)[0] > 0
        _assert_stores_equal(trace, concat_shards(read_rtrc_dir(root)))

    def test_appender_survives_its_own_compaction(self, tmp_path):
        root = tmp_path / "continue"
        policy = CompactionPolicy(max_round_files=2)
        with RtrcDirAppender(root, policy=policy) as appender:
            for r in range(8):
                appender.append_snapshot(float(r + 1), ["u"], [[0.0, 0.0, 0.0]])
                appender.commit()  # must not raise StoreChangedError
            assert appender.committed_snapshot_count == 8
        loaded = concat_shards(read_rtrc_dir(root))
        assert np.array_equal(
            loaded.columns.times, np.arange(1.0, 9.0)
        )

    def test_maybe_compact_without_policy_rejected(self, tmp_path):
        root = _round_dir(tmp_path, "nopolicy")
        with RtrcDirAppender(root) as appender:
            with pytest.raises(ValueError, match="no CompactionPolicy"):
                appender.maybe_compact()

    def test_maybe_compact_with_pending_snapshots_rejected(self, tmp_path):
        root = _round_dir(tmp_path, "pending")
        with RtrcDirAppender(root) as appender:
            appender.append_snapshot(1e6, ["u"], [[0.0, 0.0, 0.0]])
            with pytest.raises(ValueError, match="pending"):
                appender.maybe_compact(CompactionPolicy(max_round_files=1))
            appender.commit()

    def test_explicit_policy_argument_wins(self, tmp_path):
        root = _round_dir(tmp_path, "explicit", rounds=5)
        with RtrcDirAppender(root) as appender:
            assert appender.maybe_compact(CompactionPolicy(max_round_files=2))
            assert len(appender.shard_files) == 1
            # Already at the target: a second call is a no-op.
            assert not appender.maybe_compact(CompactionPolicy(max_round_files=2))

    def test_slack_trigger(self, tmp_path):
        # Many tiny round files are nearly all header: slack near 1.
        root = _round_dir(tmp_path, "slacky", rounds=8, snaps_per_round=1)
        assert shard_dir_slack(root) > 0.5
        with RtrcDirAppender(root) as appender:
            assert appender.maybe_compact(
                CompactionPolicy(max_slack_fraction=0.5)
            )
        assert len(list_rtrc_dir(root)) == 1

    def test_retention_policy_via_appender(self, tmp_path):
        root = _round_dir(tmp_path, "retain", rounds=6, snaps_per_round=3)
        with RtrcDirAppender(root) as appender:
            assert appender.maybe_compact(CompactionPolicy(retain_for=60.0))
            files = appender.shard_files
            # The appender keeps committing after the prefix drop,
            # without colliding with surviving high-index names.
            t = appender.last_time
            appender.append_snapshot(t + 10.0, ["w"], [[1.0, 1.0, 1.0]])
            path = appender.commit()
            assert path.name not in files
        assert len(list_rtrc_dir(root)) == len(files) + 1


class TestSlack:
    def test_empty_directory_is_zero(self, tmp_path):
        root = tmp_path / "none"
        RtrcDirAppender(root).close()
        assert shard_dir_slack(root) == 0.0

    def test_compaction_reduces_slack(self, tmp_path, trace):
        root = tmp_path / "reduce"
        _stream_dir(root, trace, 12)
        before = shard_dir_slack(root)
        compact_shard_dir(root)
        assert shard_dir_slack(root) < before


class TestTiering:
    def test_cold_files_gzipped_bit_identical(self, tmp_path):
        root = _round_dir(tmp_path, "tier", rounds=5, snaps_per_round=2)
        before = concat_shards(read_rtrc_dir(root))
        generation = shard_dir_generation(root)[0]
        tiered = tier_shard_dir(root, older_than=40.0)
        assert tiered and all(p.name.endswith(".rtrc.gz") for p in tiered)
        assert shard_dir_generation(root)[0] == generation + 1
        _assert_stores_equal(before, concat_shards(read_rtrc_dir(root)))
        # The plain originals are gone; the manifest is consistent.
        manifest = read_shard_manifest(root)
        on_disk = sorted(p.name for p in root.iterdir())
        assert on_disk == sorted(manifest["files"] + ["manifest.json"])

    def test_newest_file_never_tiered(self, tmp_path):
        root = _round_dir(tmp_path, "hot", rounds=4)
        tier_shard_dir(root, older_than=0.0)
        files = list_rtrc_dir(root)
        assert not files[-1].endswith(".gz")
        assert all(name.endswith(".gz") for name in files[:-1])

    def test_idempotent(self, tmp_path):
        root = _round_dir(tmp_path, "again", rounds=4)
        assert tier_shard_dir(root, older_than=0.0)
        generation = shard_dir_generation(root)[0]
        assert tier_shard_dir(root, older_than=0.0) == []
        assert shard_dir_generation(root)[0] == generation

    def test_negative_age_rejected(self, tmp_path):
        root = _round_dir(tmp_path, "neg")
        with pytest.raises(ValueError, match="older_than"):
            tier_shard_dir(root, older_than=-1.0)

    def test_appender_resumes_over_tiered_directory(self, tmp_path):
        root = _round_dir(tmp_path, "resume", rounds=3)
        tier_shard_dir(root, older_than=0.0)
        with RtrcDirAppender(root) as appender:
            t = appender.last_time
            appender.append_snapshot(t + 10.0, ["u0"], [[0.0, 0.0, 0.0]])
        assert concat_shards(read_rtrc_dir(root)).columns.snapshot_count == 10


class TestRetention:
    def test_drops_old_prefix_and_bumps_generation(self, tmp_path):
        root = _round_dir(tmp_path, "drop", rounds=6, snaps_per_round=3)
        generation = shard_dir_generation(root)[0]
        # Each file covers 30 s; the newest snapshot is t=180, so the
        # horizon 60 is cutoff t=120 and files ending before it
        # (0..2, ending 30/60/90) drop; file 3 ends exactly at 120
        # and survives.
        dropped = retain_shard_dir(root, older_than=60.0)
        assert dropped == [f"shard-{i:05d}.rtrc" for i in range(3)]
        assert shard_dir_generation(root)[0] == generation + 1
        survivors = concat_shards(read_rtrc_dir(root))
        assert float(survivors.columns.times[0]) == 100.0
        # Cumulative interner tables keep surviving ids decodable.
        assert survivors.columns.users.names == ["u0", "u1"]

    def test_newest_file_always_survives(self, tmp_path):
        root = _round_dir(tmp_path, "survivor", rounds=4)
        retain_shard_dir(root, older_than=0.0)
        files = list_rtrc_dir(root)
        assert len(files) == 1
        assert concat_shards(read_rtrc_dir(root)).columns.snapshot_count == 3

    def test_nothing_old_is_a_noop(self, tmp_path):
        root = _round_dir(tmp_path, "noop", rounds=3)
        generation = shard_dir_generation(root)[0]
        assert retain_shard_dir(root, older_than=1e9) == []
        assert shard_dir_generation(root)[0] == generation

    def test_negative_age_rejected(self, tmp_path):
        root = _round_dir(tmp_path, "neg2")
        with pytest.raises(ValueError, match="older_than"):
            retain_shard_dir(root, older_than=-0.5)

    def test_external_retention_supersedes_live_appender(self, tmp_path):
        # An appender that did NOT run the retention itself must refuse
        # its next commit (the generation moved under it).
        root = _round_dir(tmp_path, "raced", rounds=5)
        with RtrcDirAppender(root) as appender:
            retain_shard_dir(root, older_than=60.0)
            appender.append_snapshot(1e6, ["u0"], [[0.0, 0.0, 0.0]])
            with pytest.raises(StoreChangedError, match="re-open"):
                appender.commit()
            appender._pending_times = []  # allow close() to not re-raise
