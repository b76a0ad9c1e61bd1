"""Unit tests for repro.service: the mobility-analytics query service.

The load-bearing claims, each pinned here:

* every query endpoint's response bytes over a live follower are
  **bit-identical** to a payload built from a whole-trace
  :class:`~repro.core.TraceAnalyzer` over the same committed prefix,
  through the shared :mod:`repro.service.encoding` functions;
* a replayed query with ``If-None-Match`` gets ``304`` until the next
  commit bumps the generation ETag;
* a compaction racing the service degrades to a re-opened follower
  (new generation in the ETag), never a dead server;
* the ingest path enforces the modeled platform limits (body size,
  sliding-window request budget) and validates rounds before touching
  the appender;
* queries racing HTTP ingest always observe a consistent committed
  prefix.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import TraceAnalyzer, losgraph
from repro.service import QueryService, etag_matches
from repro.service.encoding import (
    contacts_payload,
    encode,
    samples_payload,
    sessions_payload,
)
from repro.trace import (
    RtrcDirAppender,
    Trace,
    compact_shard_dir,
    random_walk_trace,
)

R = 12.0


@pytest.fixture(scope="module")
def trace():
    return random_walk_trace(14, 36, np.random.default_rng(42), tau=10.0)


def stream_rounds(appender, trace, rounds):
    """Append ``trace`` in ``rounds`` commits; yields the prefix length."""
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


@pytest.fixture()
def store(tmp_path, trace):
    root = tmp_path / "crawl"
    with RtrcDirAppender(root, trace.metadata) as appender:
        for _ in stream_rounds(appender, trace, 3):
            pass
    return root


def fetch(url, etag=None, method="GET", body=None):
    """One HTTP exchange as ``(status, headers, bytes)``; no raising."""
    headers = {"If-None-Match": etag} if etag else {}
    if body is not None:
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=body, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def round_body(times, names, blocks, metadata=None):
    document = {
        "snapshots": [
            {"t": t, "users": users, "xyz": np.asarray(xyz).tolist()}
            for t, users, xyz in zip(times, names, blocks)
        ]
    }
    if metadata is not None:
        document["metadata"] = metadata
    return json.dumps(document).encode()


class TestEquivalence:
    """Service bytes == encoding over a whole-trace TraceAnalyzer."""

    def test_every_endpoint_bit_identical_to_trace_analyzer(self, store, trace):
        with QueryService({"crawl": store}) as service:
            host, port = service.start()
            base = f"http://{host}:{port}/v1/crawl"
            oracle = TraceAnalyzer(trace)
            n = len(trace)
            expected = {
                f"{base}/contacts?r={R:g}": contacts_payload(
                    oracle.contact_set(R), store="crawl", snapshots=n, r=R
                ),
                f"{base}/sessions": sessions_payload(
                    oracle.session_set(),
                    store="crawl",
                    snapshots=n,
                    gap=2.0 * trace.metadata.tau,
                ),
                f"{base}/zones?cell=20&every=2": samples_payload(
                    "zones",
                    oracle.zone_array(20.0, 2),
                    store="crawl",
                    snapshots=n,
                    params={"cell": 20.0, "every": 2},
                ),
                f"{base}/graph/degrees?r={R:g}&every=2": samples_payload(
                    "degrees",
                    oracle.degree_array(R, 2),
                    store="crawl",
                    snapshots=n,
                    params={"r": R, "every": 2},
                ),
                f"{base}/graph/diameters?r={R:g}&every=3": samples_payload(
                    "diameters",
                    np.asarray(losgraph.diameter_series(trace, R, 3)),
                    store="crawl",
                    snapshots=n,
                    params={"r": R, "every": 3},
                ),
                f"{base}/graph/clustering?r={R:g}&every=3": samples_payload(
                    "clustering",
                    np.asarray(losgraph.clustering_series(trace, R, 3)),
                    store="crawl",
                    snapshots=n,
                    params={"r": R, "every": 3},
                ),
            }
            for url, payload in expected.items():
                status, _, body = fetch(url)
                assert status == 200, (url, body)
                assert body == encode(payload), url

    def test_equivalence_holds_per_committed_prefix(self, tmp_path, trace):
        # The service answers over the committed prefix after every
        # round, exactly as a full recompute of that prefix would.
        root = tmp_path / "growing"
        with RtrcDirAppender(root, trace.metadata) as appender:
            with QueryService({"crawl": root}) as service:
                host, port = service.start()
                url = f"http://{host}:{port}/v1/crawl/contacts?r={R:g}"
                for prefix_len in stream_rounds(appender, trace, 3):
                    oracle = TraceAnalyzer(
                        Trace.from_columns(
                            trace.columns.slice_snapshots(0, prefix_len),
                            trace.metadata,
                        )
                    )
                    status, _, body = fetch(url)
                    assert status == 200
                    assert body == encode(
                        contacts_payload(
                            oracle.contact_set(R),
                            store="crawl",
                            snapshots=prefix_len,
                            r=R,
                        )
                    )

    def test_repeat_query_is_a_cache_hit(self, store):
        with QueryService({"crawl": store}) as service:
            host, port = service.start()
            url = f"http://{host}:{port}/v1/crawl/contacts?r={R:g}"
            _, _, first = fetch(url)
            _, _, second = fetch(url)
            assert first == second
            assert service.stats.cache_hits == 1
            assert service.stats.recomputes == 1

    def test_cache_results_false_recomputes_every_time(self, store):
        with QueryService({"crawl": store}, cache_results=False) as service:
            host, port = service.start()
            url = f"http://{host}:{port}/v1/crawl/contacts?r={R:g}"
            _, _, first = fetch(url)
            _, _, second = fetch(url)
            assert first == second
            assert service.stats.cache_hits == 0
            assert service.stats.recomputes == 2


class TestEtag:
    def test_if_none_match_304_until_next_commit(self, tmp_path, trace):
        root = tmp_path / "tagged"
        appender = RtrcDirAppender(root, trace.metadata)
        rounds = stream_rounds(appender, trace, 2)
        next(rounds)
        with QueryService({"crawl": root}) as service:
            host, port = service.start()
            url = f"http://{host}:{port}/v1/crawl/contacts?r={R:g}"
            status, headers, _ = fetch(url)
            etag = headers["ETag"]
            assert status == 200
            # Replays are 304 while nothing is committed.
            for _ in range(3):
                status, headers, body = fetch(url, etag=etag)
                assert (status, body) == (304, b"")
                assert headers["ETag"] == etag
            # An external producer commits one more round: the same
            # If-None-Match now misses and the tag moves.
            next(rounds)
            status, headers, body = fetch(url, etag=etag)
            assert status == 200
            assert headers["ETag"] != etag
            assert json.loads(body)["snapshots"] == len(trace)
        appender.close()

    def test_etag_moves_on_observation_free_rounds(self, tmp_path, trace):
        # A round of empty snapshots ("the land was empty") adds no
        # contacts but is a commit; the tag must move so clients
        # observe the store's progress.
        root = tmp_path / "empty-rounds"
        appender = RtrcDirAppender(root, trace.metadata)
        with QueryService({"crawl": root}) as service:
            host, port = service.start()
            url = f"http://{host}:{port}/v1/crawl/contacts?r=10"
            _, headers, _ = fetch(url)
            first = headers["ETag"]
            appender.append_snapshot(5.0, [], np.empty((0, 3)))
            appender.commit()
            _, headers, body = fetch(url, etag=first)
            assert headers["ETag"] != first
            assert json.loads(body)["count"] == 0
        appender.close()

    def test_if_none_match_handles_rfc7232_forms(self, store):
        # Caches send everything they hold: comma-separated lists,
        # weak-comparison prefixes, and the bare wildcard all must
        # still short-circuit to 304 when the current tag is present.
        with QueryService({"crawl": store}) as service:
            host, port = service.start()
            url = f"http://{host}:{port}/v1/crawl/contacts?r={R:g}"
            _, headers, _ = fetch(url)
            etag = headers["ETag"]
            for header in (
                f'"stale-1", {etag}, "stale-2"',
                f"W/{etag}",
                f'W/"stale", W/{etag}',
                "*",
            ):
                status, _, body = fetch(url, etag=header)
                assert (status, body) == (304, b""), header
            # A list without the current tag misses: full 200 replay.
            status, _, body = fetch(url, etag='"stale-1", W/"stale-2"')
            assert status == 200
            assert body

    def test_etag_matches_comparison_table(self):
        cases = [
            ('"g0-3"', '"g0-3"', True),
            ('W/"g0-3"', '"g0-3"', True),
            ('"g0-2", "g0-3"', '"g0-3"', True),
            ('W/"g0-2",W/"g0-3"', '"g0-3"', True),
            ("*", '"anything"', True),
            ('"g0-2"', '"g0-3"', False),
            ("", '"g0-3"', False),
            (",", '"g0-3"', False),
            ('"g0-3"', 'W/"g0-3"', True),
        ]
        for header, current, expected in cases:
            assert etag_matches(header, current) is expected, (header, current)

    def test_status_document_carries_etag(self, store, trace):
        with QueryService({"crawl": store}) as service:
            host, port = service.start()
            status, headers, body = fetch(f"http://{host}:{port}/v1/crawl")
            assert status == 200
            doc = json.loads(body)
            assert doc["etag"] == headers["ETag"]
            assert doc["snapshots"] == len(trace)
            assert doc["metadata"]["tau"] == trace.metadata.tau


class TestCompactionDegrade:
    def test_compaction_between_queries_reopens_follower(self, store, trace):
        with QueryService({"crawl": store}) as service:
            host, port = service.start()
            url = f"http://{host}:{port}/v1/crawl/contacts?r={R:g}"
            status, headers, before = fetch(url)
            assert status == 200
            assert headers["ETag"].startswith('"g0-')
            compact_shard_dir(store, 1)
            # Same committed data, new generation: the service must
            # answer identically from a re-opened follower.
            status, headers, after = fetch(url)
            assert status == 200
            assert headers["ETag"].startswith('"g1-')
            assert json.loads(after)["contacts"] == json.loads(before)["contacts"]
            assert service.stats.reopened_followers == 1


class TestErrors:
    def test_unknown_store_and_routes_404(self, store):
        with QueryService({"crawl": store}) as service:
            host, port = service.start()
            base = f"http://{host}:{port}"
            for path in ("/nope", "/v1/nope", "/v1/crawl/nope",
                         "/v1/crawl/graph/nope"):
                status, _, body = fetch(base + path)
                assert status == 404
                assert "error" in json.loads(body)

    def test_bad_parameters_400(self, store):
        with QueryService({"crawl": store}) as service:
            host, port = service.start()
            base = f"http://{host}:{port}/v1/crawl"
            for path in ("/contacts", "/contacts?r=banana", "/contacts?r=-1",
                         "/zones?cell=20&every=0", "/contacts?r=10&bogus=1"):
                status, _, _ = fetch(base + path)
                assert status == 400, path

    def test_empty_store_samples_409(self, tmp_path, trace):
        root = tmp_path / "empty"
        with RtrcDirAppender(root, trace.metadata):
            pass
        with QueryService({"crawl": root}) as service:
            host, port = service.start()
            base = f"http://{host}:{port}/v1/crawl"
            # Contacts and sessions are well-defined (empty) results.
            assert fetch(f"{base}/contacts?r=10")[0] == 200
            status, _, body = fetch(f"{base}/zones?cell=20")
            assert status == 409
            assert "no snapshots" in json.loads(body)["error"]


class TestIngest:
    def test_post_commits_one_round_and_bumps_etag(self, tmp_path):
        root = tmp_path / "fresh"
        with QueryService({"crawl": root}, ingest=True) as service:
            host, port = service.start()
            base = f"http://{host}:{port}/v1/crawl"
            body = round_body(
                [0.0, 10.0],
                [["a", "b"], ["a"]],
                [[[0.0, 0, 0], [5.0, 0, 0]], [[1.0, 0, 0]]],
                metadata={"land_name": "Test Land", "tau": 10.0},
            )
            status, headers, reply = fetch(f"{base}/rounds", method="POST", body=body)
            assert status == 200, reply
            doc = json.loads(reply)
            assert doc["committed_snapshots"] == 2
            assert doc["committed_observations"] == 3
            assert doc["etag"] == headers["ETag"]
            status, _, reply = fetch(base)
            assert json.loads(reply)["snapshots"] == 2
            assert json.loads(reply)["metadata"]["land_name"] == "Test Land"

    def test_ingest_disabled_405(self, store):
        with QueryService({"crawl": store}) as service:
            host, port = service.start()
            status, _, _ = fetch(
                f"http://{host}:{port}/v1/crawl/rounds",
                method="POST",
                body=round_body([1e9], [["a"]], [[[0.0, 0, 0]]]),
            )
            assert status == 405

    def test_single_file_store_rejects_ingest(self, tmp_path, trace):
        # A single .rtrc file is write-once: it is refused as a store
        # at all, with the route to a shard directory.
        from repro.trace import write_trace_rtrc

        path = tmp_path / "flat.rtrc"
        write_trace_rtrc(trace, path)
        with pytest.raises(ValueError, match="slmob shard-export"):
            QueryService({"flat": path}, ingest=True)

    def test_invalid_round_documents_400(self, tmp_path):
        with QueryService({"crawl": tmp_path / "fresh"}, ingest=True) as service:
            host, port = service.start()
            url = f"http://{host}:{port}/v1/crawl/rounds"
            bad = [
                b"not json",
                b"[]",
                b"{}",
                json.dumps({"snapshots": [{"t": 0.0}]}).encode(),
                json.dumps(
                    {"snapshots": [{"t": 0.0, "users": ["a"], "xyz": [[1, 2]]}]}
                ).encode(),
                json.dumps(
                    {"snapshots": [{"t": 0.0, "users": [3], "xyz": [[1, 2, 3]]}]}
                ).encode(),
            ]
            for body in bad:
                status, _, _ = fetch(url, method="POST", body=body)
                assert status == 400, body

    def test_non_increasing_times_409_and_store_unchanged(self, tmp_path):
        with QueryService({"crawl": tmp_path / "fresh"}, ingest=True) as service:
            host, port = service.start()
            base = f"http://{host}:{port}/v1/crawl"
            ok = round_body([10.0], [["a"]], [[[0.0, 0, 0]]])
            assert fetch(f"{base}/rounds", method="POST", body=ok)[0] == 200
            # Within one round.
            status, _, _ = fetch(
                f"{base}/rounds",
                method="POST",
                body=round_body([20.0, 20.0], [["a"], ["a"]],
                                [[[0.0, 0, 0]], [[0.0, 0, 0]]]),
            )
            assert status == 409
            # Against the committed history.
            status, _, body = fetch(
                f"{base}/rounds",
                method="POST",
                body=round_body([5.0], [["a"]], [[[0.0, 0, 0]]]),
            )
            assert status == 409
            assert "strictly increasing" in json.loads(body)["error"]
            _, _, reply = fetch(base)
            assert json.loads(reply)["snapshots"] == 1

    def test_body_limit_413(self, tmp_path):
        service = QueryService(
            {"crawl": tmp_path / "fresh"}, ingest=True, ingest_body_limit=256
        )
        with service:
            host, port = service.start()
            status, _, body = fetch(
                f"http://{host}:{port}/v1/crawl/rounds",
                method="POST",
                body=round_body(
                    [float(t) for t in range(40)],
                    [["user"]] * 40,
                    [[[1.0, 2.0, 3.0]]] * 40,
                ),
            )
            assert status == 413
            assert "byte limit" in json.loads(body)["error"]

    def test_request_budget_429_with_injected_clock(self, tmp_path):
        clock_now = [0.0]
        service = QueryService(
            {"crawl": tmp_path / "fresh"},
            ingest=True,
            ingest_budget=2,
            clock=lambda: clock_now[0],
        )
        with service:
            host, port = service.start()
            url = f"http://{host}:{port}/v1/crawl/rounds"

            def post(t):
                return fetch(
                    url,
                    method="POST",
                    body=round_body([t], [["a"]], [[[0.0, 0, 0]]]),
                )

            assert post(10.0)[0] == 200
            assert post(20.0)[0] == 200
            status, headers, _ = post(30.0)
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert service.stats.ingest_rejected == 1
            # The window slides: a minute later the budget recovers.
            clock_now[0] = 61.0
            assert post(30.0)[0] == 200


class TestConcurrency:
    def test_queries_racing_appends_always_see_committed_prefixes(
        self, tmp_path, trace
    ):
        # One writer streams rounds through the ingest endpoint while
        # reader threads hammer the contacts endpoint: every response
        # must describe some committed prefix (snapshot counts only
        # grow, and each body matches its own declared prefix oracle).
        root = tmp_path / "race"
        with QueryService({"crawl": root}, ingest=True) as service:
            host, port = service.start()
            base = f"http://{host}:{port}/v1/crawl"
            stop = threading.Event()
            seen: list[tuple[int, bytes]] = []
            errors: list[object] = []

            def reader():
                try:
                    while not stop.is_set():
                        status, _, body = fetch(f"{base}/contacts?r={R:g}")
                        assert status == 200
                        seen.append((json.loads(body)["snapshots"], body))
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            cols = trace.columns
            edges = np.linspace(0, cols.snapshot_count, 7).astype(int)
            for lo, hi in zip(edges[:-1], edges[1:]):
                times, users, xyz = [], [], []
                for index in range(int(lo), int(hi)):
                    a, b = (
                        cols.snapshot_offsets[index],
                        cols.snapshot_offsets[index + 1],
                    )
                    times.append(float(cols.times[index]))
                    users.append(cols.names_of(index))
                    xyz.append(cols.xyz[a:b])
                status, _, _ = fetch(
                    f"{base}/rounds", method="POST",
                    body=round_body(times, users, xyz),
                )
                assert status == 200
            stop.set()
            for thread in threads:
                thread.join()
            assert not errors
            assert seen
            prefixes = sorted({n for n, _ in seen})
            allowed = set(edges.tolist())
            assert set(prefixes) <= allowed
            # Every observed prefix answered exactly as a recompute of
            # that prefix would.
            for prefix_len, body in seen:
                if prefix_len == 0:
                    assert json.loads(body)["count"] == 0
                    continue
                oracle = TraceAnalyzer(
                    Trace.from_columns(
                        trace.columns.slice_snapshots(0, int(prefix_len)),
                        trace.metadata,
                    )
                )
                assert body == encode(
                    contacts_payload(
                        oracle.contact_set(R),
                        store="crawl",
                        snapshots=int(prefix_len),
                        r=R,
                    )
                )


class TestListing:
    def test_listing_names_every_store(self, store, tmp_path, trace):
        from repro.trace import to_rtrc_dir

        flat = tmp_path / "flat"
        to_rtrc_dir(trace, 2, flat)
        with QueryService({"crawl": store, "flat": flat}) as service:
            host, port = service.start()
            status, _, body = fetch(f"http://{host}:{port}/v1")
            assert status == 200
            doc = json.loads(body)
            assert sorted(doc["stores"]) == ["crawl", "flat"]
            assert doc["stores"]["crawl"]["shard_dir"] is True
            assert doc["stores"]["flat"]["shard_dir"] is True
            assert doc["stores"]["flat"]["snapshots"] == len(trace)
            assert doc["stores"]["flat"]["etag"] == '"g0-2"'

    def test_missing_store_path_refused_without_ingest(self, tmp_path):
        with pytest.raises(ValueError, match="no such store"):
            QueryService({"crawl": tmp_path / "missing"})
