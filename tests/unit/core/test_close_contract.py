"""One close contract for every time-partitioned analyzer.

``BoundaryMergeAnalyzer`` subclasses — ``ShardedAnalyzer``,
``WindowedAnalyzer``, ``LiveAnalyzer`` (over an appender-grown shard
directory and over a ``to_rtrc_dir`` export) — share a single
lifecycle rule, pinned here across every backend:

* results computed before ``close()`` stay readable from the caches;
* any analysis that would need new extraction raises ``ValueError``
  mentioning "closed" — including the reuse-through-cache edge case
  where a ``contacts_multirange`` request mixes cached and uncached
  radii;
* no worker pool, temp directory, or materialized part file is
  silently resurrected after close (the PR-3 process backend could be
  coaxed into re-materializing shard tempfiles through exactly that
  mixed-cache path);
* ``close()`` is idempotent and usable as a context manager.
"""

import numpy as np
import pytest

from repro.core import (
    LiveAnalyzer,
    ShardedAnalyzer,
    WindowedAnalyzer,
    extract_contacts,
)
from repro.trace import RtrcDirAppender, to_rtrc_dir, write_trace_rtrc
from tests.unit.core.test_sharded_equivalence import churn_trace

RADIUS = 15.0
OTHER_RADIUS = 42.0


def _sharded(trace, tmp_path, backend):
    return ShardedAnalyzer(trace, 3, backend=backend)


def _windowed(trace, tmp_path, backend):
    path = write_trace_rtrc(trace, tmp_path / "t.rtrc")
    return WindowedAnalyzer(path, 100.0, backend=backend)


def _live_dir(trace, tmp_path, backend):
    root = tmp_path / "shards"
    cols = trace.columns
    edges = np.linspace(0, cols.snapshot_count, 4).astype(int)
    with RtrcDirAppender(root, trace.metadata) as appender:
        for lo, hi in zip(edges[:-1], edges[1:]):
            for index in range(int(lo), int(hi)):
                a, b = cols.snapshot_offsets[index], cols.snapshot_offsets[index + 1]
                appender.append_snapshot(
                    float(cols.times[index]), cols.names_of(index), cols.xyz[a:b]
                )
            appender.commit()
    return LiveAnalyzer(root, backend=backend)


def _live_export(trace, tmp_path, backend):
    # The route a one-shot trace file takes to a follower:
    # ``slmob shard-export`` writes the shard directory in one go.
    root = tmp_path / "export"
    to_rtrc_dir(trace, 3, root)
    return LiveAnalyzer(root, backend=backend)


FACTORIES = [
    pytest.param((_sharded, "thread"), id="sharded-thread"),
    pytest.param((_sharded, "process"), id="sharded-process"),
    pytest.param((_windowed, "serial"), id="windowed-serial"),
    pytest.param((_windowed, "thread"), id="windowed-thread"),
    pytest.param((_windowed, "process"), id="windowed-process"),
    pytest.param((_live_dir, "serial"), id="live-dir-serial"),
    pytest.param((_live_dir, "thread"), id="live-dir-thread"),
    pytest.param((_live_dir, "process"), id="live-dir-process"),
    pytest.param((_live_export, "serial"), id="live-export-serial"),
    pytest.param((_live_export, "thread"), id="live-export-thread"),
    pytest.param((_live_export, "process"), id="live-export-process"),
]


@pytest.fixture(scope="module")
def trace():
    return churn_trace(13)


@pytest.fixture(params=FACTORIES)
def analyzer(request, trace, tmp_path):
    factory, backend = request.param
    analyzer = factory(trace, tmp_path, backend)
    yield analyzer
    analyzer.close()


class TestCloseContract:
    def test_cached_results_survive_new_analyses_raise(self, analyzer, trace):
        contacts = analyzer.contacts(RADIUS)
        assert contacts == extract_contacts(trace, RADIUS)
        analyzer.close()
        assert analyzer.closed
        # Cached result: readable, identical.
        assert analyzer.contacts(RADIUS) == contacts
        # Fresh extraction: refused.
        with pytest.raises(ValueError, match="closed"):
            analyzer.sessions()
        with pytest.raises(ValueError, match="closed"):
            analyzer.contacts(OTHER_RADIUS)
        with pytest.raises(ValueError, match="closed"):
            analyzer.zone_occupation(20.0)

    def test_mixed_multirange_does_not_resurrect_resources(self, analyzer, trace):
        # The reuse-through-cache edge case: one radius cached, one
        # not.  The request must fail *before* any pool or part file
        # comes back to life.
        analyzer.contacts(RADIUS)
        analyzer.close()
        scheduler = analyzer._scheduler
        with pytest.raises(ValueError, match="closed"):
            analyzer.contacts_multirange((RADIUS, OTHER_RADIUS))
        assert scheduler.pool is None
        assert scheduler.materialized_paths == []
        assert scheduler._tmpdir is None
        # The fully-cached variant still answers from the cache.
        assert analyzer.contacts_multirange((RADIUS,)) == {
            RADIUS: analyzer.contacts(RADIUS)
        }
        assert scheduler.pool is None
        assert scheduler._tmpdir is None

    def test_close_is_idempotent_and_context_managed(self, analyzer, trace):
        with analyzer as a:
            contacts = a.contacts(RADIUS)
        analyzer.close()
        analyzer.close()
        assert analyzer.contacts(RADIUS) == contacts

    def test_process_resources_released_on_close(self, analyzer, trace):
        analyzer.contacts(RADIUS)
        paths = analyzer._scheduler.materialized_paths
        analyzer.close()
        assert analyzer._scheduler.pool is None
        assert not any(p.exists() for p in paths)
