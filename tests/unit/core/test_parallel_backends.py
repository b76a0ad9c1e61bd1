"""Thread and process shard backends must agree with the serial oracle.

One parametrized suite covers both execution backends of
:class:`~repro.core.sharded.ShardedAnalyzer` at k ∈ {1, 2, 7} shards:
every extraction family — contacts, multirange contacts, sessions,
zone occupation, and the losgraph samples (degrees, diameters,
clustering) — is compared *bit-for-bit* against the unsharded
extractors, so the thread and process paths share one oracle.  The
process backend really spawns workers that memmap-load per-shard
``.rtrc`` files; nothing is mocked.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    ShardAnalysisError,
    ShardedAnalyzer,
    TraceAnalyzer,
    extract_contacts,
    losgraph,
)
from repro.core.spatial import zone_occupation
from repro.trace import constant_positions_trace, extract_sessions
from tests.unit.core.test_sharded_equivalence import churn_trace

BACKENDS = ("thread", "process")
SHARD_COUNTS = (1, 2, 7)
RADII = (6.0, 15.0, 80.0)
REPO_ROOT = Path(__file__).resolve().parents[3]


@pytest.fixture(scope="module")
def trace():
    return churn_trace(17)


@pytest.fixture(scope="module", params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture(
    scope="module",
    params=SHARD_COUNTS,
    ids=[f"k{k}" for k in SHARD_COUNTS],
)
def analyzer(request, trace, backend):
    with ShardedAnalyzer(trace, request.param, backend=backend) as sharded:
        yield sharded


class TestEquivalence:
    @pytest.mark.parametrize("r", RADII)
    def test_contacts(self, analyzer, trace, r):
        assert analyzer.contacts(r) == extract_contacts(trace, r)

    def test_contacts_multirange(self, analyzer, trace):
        result = analyzer.contacts_multirange(RADII)
        for r, contacts in result.items():
            assert contacts == extract_contacts(trace, r)

    def test_sessions(self, analyzer, trace):
        assert analyzer.sessions() == extract_sessions(trace)

    def test_sessions_custom_gap(self, analyzer, trace):
        assert analyzer.sessions(45.0) == extract_sessions(trace, 45.0)

    @pytest.mark.parametrize("every", (1, 3, 5))
    def test_zone_occupation(self, analyzer, trace, every):
        expected = zone_occupation(trace, 20.0, every)
        got = analyzer.zone_occupation(20.0, every)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("every", (1, 2))
    def test_degrees(self, analyzer, trace, every):
        expected = np.asarray(
            losgraph.degree_samples(trace, 15.0, every), dtype=np.int64
        )
        assert np.array_equal(analyzer.degree_array(15.0, every), expected)

    @pytest.mark.parametrize("every", (1, 2))
    def test_diameters(self, analyzer, trace, every):
        expected = np.asarray(
            losgraph.diameter_series(trace, 15.0, every), dtype=np.int64
        )
        assert np.array_equal(analyzer.diameter_array(15.0, every), expected)

    @pytest.mark.parametrize("every", (1, 2))
    def test_clustering(self, analyzer, trace, every):
        expected = np.asarray(
            losgraph.clustering_series(trace, 15.0, every), dtype=np.float64
        )
        assert np.array_equal(analyzer.clustering_array(15.0, every), expected)


class TestBoundaries:
    def test_boundary_spanning_contact(self, backend):
        # Two users pinned in range for the whole trace: every shard
        # boundary cuts the contact and the merge must restitch it
        # into exactly one censored interval — on either backend.
        trace = constant_positions_trace(
            {"a": (10.0, 10.0), "b": (12.0, 10.0)}, steps=21, tau=10.0
        )
        with ShardedAnalyzer(trace, 7, backend=backend) as sharded:
            contacts = sharded.contacts(10.0)
        assert contacts == extract_contacts(trace, 10.0)
        assert len(contacts) == 1
        assert contacts[0].censored

    def test_session_spanning_every_boundary(self, backend):
        trace = constant_positions_trace({"solo": (5.0, 5.0)}, steps=15, tau=10.0)
        with ShardedAnalyzer(trace, 7, backend=backend) as sharded:
            sessions = sharded.sessions()
        assert sessions == extract_sessions(trace)
        assert len(sessions) == 1
        assert sessions[0].observation_count == 15


class TestAnalyzerIntegration:
    def test_trace_analyzer_backend_argument(self, trace, backend):
        plain = TraceAnalyzer(trace)
        with TraceAnalyzer(trace, shards=3, backend=backend) as sharded:
            assert sharded.contacts(15.0) == plain.contacts(15.0)
            assert sharded.sessions() == plain.sessions()
            assert np.array_equal(
                sharded.degree_array(15.0, 2), plain.degree_array(15.0, 2)
            )
            assert np.array_equal(
                sharded.diameters(15.0, 2).values, plain.diameters(15.0, 2).values
            )
            assert np.array_equal(
                sharded.clustering(15.0, 2).values, plain.clustering(15.0, 2).values
            )
            assert np.array_equal(
                sharded.zone_array(20.0, 3), plain.zone_array(20.0, 3)
            )

    def test_unknown_backend_rejected(self, trace):
        with pytest.raises(ValueError, match="backend"):
            ShardedAnalyzer(trace, 2, backend="carrier-pigeon")

    def test_unknown_backend_rejected_unsharded(self, trace):
        # shards=1 never builds a ShardedAnalyzer, but a typo'd
        # backend must still fail loudly, not silently run serial.
        with pytest.raises(ValueError, match="backend"):
            TraceAnalyzer(trace, backend="procss")

    def test_closed_analyzer_rejects_new_analyses(self, trace, backend):
        with ShardedAnalyzer(trace, 2, backend=backend) as sharded:
            contacts = sharded.contacts(15.0)
        # Cached results survive close; a fresh analysis must raise
        # instead of silently resurrecting pool/tempdir resources.
        assert sharded.contacts(15.0) == contacts
        with pytest.raises(ValueError, match="closed"):
            sharded.sessions()

    def test_single_shard_process_backend_runs_inline(self, trace):
        # One non-empty shard has no parallelism to exploit: the
        # process backend must not pay spawn + shard-file overhead.
        with ShardedAnalyzer(trace, 1, backend="process") as sharded:
            assert sharded.contacts(15.0) == extract_contacts(trace, 15.0)
            assert sharded._scheduler.pool is None
            assert sharded._scheduler.materialized_paths == []


class TestPoolSizing:
    def test_persistent_pool_grows_for_bigger_task_sets(self, monkeypatch):
        # A live follower's first catch-up may fan 2 tasks; a later
        # backfill may fan 8 — the persistent pool must not stay
        # pinned at the first run's size.
        import repro.core.parallel as parallel_mod
        from repro.core.parallel import PartScheduler

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 8)
        with PartScheduler("process") as scheduler:
            small = scheduler._process_pool(2)
            assert scheduler._pool_size == 2
            assert scheduler._process_pool(2) is small  # reused
            big = scheduler._process_pool(6)
            assert big is not small
            assert scheduler._pool_size == 6
            assert scheduler._process_pool(3) is big  # never shrinks


class TestFailurePropagation:
    def test_worker_error_names_shard_time_range(self, trace, backend):
        # An unknown task kind makes the worker body raise — on the
        # process backend that failure crosses the pipe; either way it
        # must come back wrapped with the failing shard's time range.
        with ShardedAnalyzer(trace, 2, backend=backend) as sharded:
            with pytest.raises(ShardAnalysisError, match=r"t=\[0, ") as excinfo:
                sharded._map("definitely-not-a-task", [()] * len(sharded.shards))
        assert "definitely-not-a-task" in str(excinfo.value)
        assert excinfo.value.__cause__ is not None

    def test_thread_backend_preserves_cause(self, trace, monkeypatch):
        import repro.core.parallel as parallel_mod

        boom = RuntimeError("disk on fire")

        def exploding(shard, kind, params):
            raise boom

        monkeypatch.setattr(parallel_mod, "extract_shard_task", exploding)
        sharded = ShardedAnalyzer(trace, 3, backend="thread")
        with pytest.raises(ShardAnalysisError, match="disk on fire") as excinfo:
            sharded.contacts(10.0)
        assert excinfo.value.__cause__ is boom
        assert "snapshots" in str(excinfo.value)

    def test_broken_process_pool_is_discarded_and_respawned(self, trace):
        # Kill a worker mid-flight: the executor marks itself broken,
        # the in-flight analysis must surface as ShardAnalysisError
        # (not a raw BrokenProcessPool), and the *next* analysis must
        # succeed on a freshly spawned pool.
        import os

        with ShardedAnalyzer(trace, 2, backend="process") as sharded:
            pool = sharded._scheduler._process_pool(len(sharded.shards))
            with pytest.raises(Exception):
                pool.submit(os._exit, 13).result()
            with pytest.raises(ShardAnalysisError):
                sharded.contacts(15.0)
            assert sharded._scheduler.pool is None
            assert sharded.contacts(15.0) == extract_contacts(trace, 15.0)

    def test_worker_death_mid_flight_recovers_next_call(self, trace):
        # Kill the live workers between submit and collect: whichever
        # side detects the breakage (submit or future.result), the
        # wrapped error must discard the pool so the very next
        # analysis succeeds on a fresh one.
        with ShardedAnalyzer(trace, 2, backend="process") as sharded:
            pool = sharded._scheduler._process_pool(len(sharded.shards))
            pool.submit(int, 0).result()  # ensure workers are up
            for proc in list(pool._processes.values()):
                proc.terminate()
            with pytest.raises(ShardAnalysisError):
                sharded.sessions()
            assert sharded._scheduler.pool is None
            assert sharded.sessions() == extract_sessions(trace)

    def test_discarded_broken_pool_leaves_no_worker_and_exit_is_prompt(self):
        # The worker-death scenario above, repeated in a fresh
        # interpreter.  A worker spawned by a submit that races the
        # breakage used to survive the executor's teardown, so the
        # interpreter printed its last line and then hung at exit
        # joining the executor's manager thread.  The discarded pool
        # must leave no live worker, and the process must exit on its
        # own well inside the deadline.
        script = textwrap.dedent(
            """
            from repro.core import ShardAnalysisError, ShardedAnalyzer
            from repro.trace import extract_sessions
            from tests.unit.core.test_sharded_equivalence import churn_trace

            trace = churn_trace(17)
            for _ in range(3):
                with ShardedAnalyzer(trace, 2, backend="process") as sharded:
                    pool = sharded._scheduler._process_pool(2)
                    workers = pool._processes
                    pool.submit(int, 0).result()
                    for proc in list(workers.values()):
                        proc.terminate()
                    try:
                        sharded.sessions()
                    except ShardAnalysisError:
                        pass
                    alive = [w.pid for w in workers.values() if w.is_alive()]
                    assert alive == [], f"workers left alive: {alive}"
                    assert sharded.sessions() == extract_sessions(trace)
            print("done", flush=True)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=90)
        except subprocess.TimeoutExpired:
            # Take the stuck workers down with the interpreter.
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("process did not exit within 90 s of its last task")
        assert child.returncode == 0, err
        assert out.strip() == "done"
