"""The mobility-analytics query service.

:class:`QueryService` turns the analyzer stack into a long-running
network system, the shape the paper's own measurement pipeline had
(sensors POST slices to a rate-limited web server, analysts query a
web application over the database).  One server process holds a
:class:`~repro.core.live.LiveAnalyzer` follower per configured shard
directory and answers JSON
queries over HTTP (stdlib ``http.server``; no new dependencies):

====================================  =====================================
``GET /v1``                           store listing
``GET /v1/<store>``                   one store's status + current ETag
``GET /v1/<store>/contacts?r=10``     merged contact intervals
``GET /v1/<store>/sessions[?gap=20]`` user visits with trip metrics
``GET /v1/<store>/zones?cell=20``     zone-occupation samples
``GET /v1/<store>/graph/degrees?r=10``  losgraph sample series
``POST /v1/<store>/rounds``           ingest one committed crawl round
====================================  =====================================

Caching and invalidation
------------------------

Every query refreshes the store's follower (free when nothing was
committed) and is answered from a per-``(kind, params)`` cache of
encoded responses.  Cache entries are tagged with the store's
*generation tag* — the ``manifest.json`` compaction generation plus
the committed-file count (:func:`~repro.trace.shard_dir_generation`)
— which changes on exactly the events that can change an answer.
The tag doubles as the HTTP ``ETag``: a client replaying a query with
``If-None-Match`` gets ``304 Not Modified`` until the next commit (or
compaction) bumps the tag.

A compaction racing a follower raises
:class:`~repro.core.live.StoreChangedError`; the service degrades by
re-opening a fresh follower over the compacted directory (dropping
that store's caches) instead of dying — the store itself is still
consistent, only the follower's incremental history was invalidated.

Ingest
------

With ``ingest=True``, ``POST /v1/<store>/rounds`` feeds an
:class:`~repro.trace.RtrcDirAppender`: the posted snapshots become one
committed round (one immutable shard file + atomic manifest swap), so
a crawler streams rounds over HTTP instead of sharing a filesystem
(:class:`~repro.service.HttpRoundSink` is the client half).  The
ingest path models the same two platform limits
:class:`~repro.monitors.webserver.WebServer` gives the in-world
sensors — a bounded request body (``413``) and a sliding-window
request budget (``429``) — with service-scale defaults.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Mapping
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from repro.core import spatial
from repro.core.live import LiveAnalyzer, StoreChangedError
from repro.monitors.webserver import WebServer
from repro.service.encoding import (
    contacts_payload,
    encode,
    error_payload,
    samples_payload,
    sessions_payload,
    status_payload,
)
from repro.trace import (
    RtrcDirAppender,
    TraceFormatError,
    TraceMetadata,
    shard_dir_generation,
)

#: Default sliding-window ingest budget (requests per minute).  The
#: modeled SL limit in :mod:`repro.monitors.webserver` is far tighter;
#: the service default is sized for one crawler per land.
DEFAULT_INGEST_BUDGET = 600

#: Default ingest body limit, bytes.  A 10-minute crawl round of a
#: busy land serializes to a few hundred KB of JSON; 16 MiB leaves
#: generous headroom while still bounding a misbehaving client.
DEFAULT_INGEST_BODY_LIMIT = 16 << 20

_GRAPH_KINDS = ("degrees", "diameters", "clustering")


def etag_matches(if_none_match: str, etag: str) -> bool:
    """Whether an ``If-None-Match`` header matches the current ETag.

    RFC 7232 §3.2 semantics: the header may be ``*`` (matches any
    current representation), or a comma-separated list of entity tags,
    each optionally carrying a ``W/`` weak-validator prefix.
    ``If-None-Match`` uses *weak comparison* — two tags match when
    their opaque parts are equal, ``W/`` prefixes ignored — so a cache
    replaying a weakened tag still gets its 304.  (Our ETags contain
    no commas or embedded quotes, so splitting on commas is exact.)
    """
    header = if_none_match.strip()
    if header == "*":
        return True
    current = etag[2:] if etag.startswith("W/") else etag
    for candidate in header.split(","):
        tag = candidate.strip()
        if tag.startswith("W/"):
            tag = tag[2:]
        if tag and tag == current:
            return True
    return False


class ServiceError(Exception):
    """An HTTP-mappable request failure."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class ServiceStats:
    """Counters the service keeps about its own traffic."""

    queries: int = 0
    cache_hits: int = 0
    recomputes: int = 0
    not_modified: int = 0
    reopened_followers: int = 0
    ingested_rounds: int = 0
    ingested_snapshots: int = 0
    ingest_rejected: int = 0


class _StoreHandle:
    """One followed store: follower + lock + tagged response cache."""

    __slots__ = ("name", "path", "lock", "live", "appender", "generation", "cache")

    def __init__(self, name: str, path: Path) -> None:
        self.name = name
        self.path = path
        self.lock = threading.RLock()
        self.live: LiveAnalyzer | None = None
        self.appender: RtrcDirAppender | None = None
        self.generation = 0
        # (kind, sorted params) -> (etag, encoded response body)
        self.cache: dict[tuple, tuple[str, bytes]] = {}


class QueryService:
    """Serve cached mobility analytics over live shard directories.

    Parameters
    ----------
    stores:
        ``{name: path}`` of the shard directories to follow; ``name``
        becomes the URL segment (``/v1/<name>/...``).  With ``ingest``
        enabled a missing suffix-less path is created as a fresh shard
        directory.
    host / port:
        Bind address; port 0 picks a free port (read :attr:`address`
        after :meth:`start`).
    backend:
        Follower backend for catch-up extraction
        (``serial``/``thread``/``process``), as in
        :class:`~repro.core.live.LiveAnalyzer`.
    ingest:
        Enable ``POST /v1/<store>/rounds``.  The service's appender
        must then be the directory's only writer.
    cache_results:
        Keep the per-``(kind, params)`` encoded-response cache
        (default).  ``False`` rebuilds and re-encodes every response —
        the "uncached recompute" side of
        ``benchmarks/bench_query_service.py``.
    ingest_budget / ingest_body_limit:
        The modeled platform limits on the ingest path: requests per
        sliding 60 s window across all stores, and the maximum request
        body in bytes.
    clock:
        Time source for the ingest budget window (monotonic seconds);
        injectable for tests.
    verbose:
        Log one line per request to stderr (the CLI turns this on).
    """

    def __init__(
        self,
        stores: Mapping[str, str | Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str = "serial",
        mmap: bool = True,
        ingest: bool = False,
        cache_results: bool = True,
        ingest_budget: int = DEFAULT_INGEST_BUDGET,
        ingest_body_limit: int = DEFAULT_INGEST_BODY_LIMIT,
        clock: Callable[[], float] = time.monotonic,
        verbose: bool = False,
    ) -> None:
        if not stores:
            raise ValueError("the service needs at least one store to serve")
        self._host = host
        self._port = port
        self._backend = backend
        self._mmap = bool(mmap)
        self.ingest = bool(ingest)
        self.cache_results = bool(cache_results)
        self.verbose = bool(verbose)
        self._clock = clock
        self._budget = WebServer(
            max_requests_per_minute=ingest_budget,
            body_limit_bytes=ingest_body_limit,
        )
        self._budget_lock = threading.Lock()
        self.stats = ServiceStats()
        self._stats_lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._serving = False
        self._closed = False
        self._stores: dict[str, _StoreHandle] = {}
        try:
            for name, path in stores.items():
                self._stores[name] = self._open_store(str(name), Path(path))
        except BaseException:
            self.close()
            raise

    # -- store lifecycle ----------------------------------------------------

    def _open_store(self, name: str, path: Path) -> _StoreHandle:
        if not name or "/" in name:
            raise ValueError(f"invalid store name {name!r}")
        handle = _StoreHandle(name, path)
        if not path.exists():
            if self.ingest and path.suffix == "":
                # A fresh ingest target: the appender creates the
                # directory and its empty manifest, so the follower
                # below opens a valid (zero-round) shard dir.
                handle.appender = RtrcDirAppender(path)
            else:
                raise ValueError(
                    f"{path}: no such store (create it, or serve with "
                    "ingest enabled and a suffix-less path to start a "
                    "fresh shard directory)"
                )
        self._reopen_follower(handle)
        return handle

    def _reopen_follower(self, handle: _StoreHandle) -> None:
        """(Re)open the follower; refreshes the generation tag."""
        if handle.live is not None:
            handle.live.close()
        handle.live = LiveAnalyzer(
            handle.path, mmap=self._mmap, backend=self._backend
        )
        handle.generation = shard_dir_generation(handle.path)[0]
        handle.cache.clear()

    def _refresh(self, handle: _StoreHandle) -> None:
        """Observe commits; absorb torn reads; survive compactions."""
        assert handle.live is not None
        try:
            try:
                handle.live.refresh()
            except TraceFormatError:
                # A read racing a commit can tear; one short retry
                # separates that transient from real corruption.
                time.sleep(0.05)
                handle.live.refresh()
        except StoreChangedError:
            # A compaction (or other history rewrite) invalidated this
            # follower's incremental state.  The store itself is
            # consistent behind its new manifest — degrade by
            # re-opening instead of dying.
            self._reopen_follower(handle)
            with self._stats_lock:
                self.stats.reopened_followers += 1

    def _etag(self, handle: _StoreHandle) -> str:
        assert handle.live is not None
        return f'"g{handle.generation}-{handle.live.committed_file_count}"'

    # -- server lifecycle ----------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind and serve on a background thread; returns the address."""
        self.bind()
        assert self._server is not None
        self._serving = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="slmob-query-service",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path); binds if needed."""
        if self._server is None:
            self.bind()
        assert self._server is not None
        self._serving = True
        self._server.serve_forever()

    def bind(self) -> tuple[str, int]:
        """Bind the listening socket without serving yet.

        Lets a caller learn the bound address (port 0 picks a free
        port) before committing the calling thread to
        :meth:`serve_forever`.
        """
        if self._closed:
            raise ValueError("service is closed")
        if self._server is not None:
            raise ValueError("service is already serving")
        server = ThreadingHTTPServer((self._host, self._port), _Handler)
        server.daemon_threads = True
        server.service = self  # type: ignore[attr-defined]
        self._server = server
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; raises before :meth:`_bind`."""
        if self._server is None:
            raise ValueError("service is not serving yet")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def close(self) -> None:
        """Stop serving and release followers/appenders; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            if self._serving:
                # shutdown() handshakes with the serve_forever loop;
                # calling it on a bound-but-never-served socket would
                # wait for an acknowledgment that never comes.
                self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        for handle in self._stores.values():
            with handle.lock:
                if handle.live is not None:
                    handle.live.close()
                    handle.live = None
                if handle.appender is not None:
                    handle.appender.close()
                    handle.appender = None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request handling ----------------------------------------------------

    def handle_get(
        self, path: str, headers: Mapping[str, str]
    ) -> tuple[int, dict[str, str], bytes]:
        """Route one GET; returns ``(status, extra headers, body)``."""
        url = urlsplit(path)
        segments = [s for s in url.path.split("/") if s]
        query = dict(parse_qsl(url.query, keep_blank_values=True))
        if not segments or segments[0] != "v1":
            raise ServiceError(404, f"unknown path {url.path!r}; routes live under /v1")
        if len(segments) == 1:
            return 200, {}, encode(self._listing())
        handle = self._handle_for(segments[1])
        if len(segments) == 2:
            kind, params = "status", {}
        elif len(segments) == 3 and segments[2] in ("contacts", "sessions", "zones"):
            kind = segments[2]
            params = self._query_params(kind, query, handle)
        elif len(segments) == 4 and segments[2] == "graph":
            if segments[3] not in _GRAPH_KINDS:
                raise ServiceError(
                    404,
                    f"unknown graph metric {segments[3]!r}; expected one of "
                    f"{_GRAPH_KINDS}",
                )
            kind = segments[3]
            params = self._query_params(kind, query, handle)
        else:
            raise ServiceError(404, f"unknown path {url.path!r}")
        return self._answer(handle, kind, params, headers.get("If-None-Match"))

    def _listing(self) -> dict:
        stores = {}
        for name, handle in sorted(self._stores.items()):
            with handle.lock:
                self._refresh(handle)
                live = handle.live
                assert live is not None
                stores[name] = {
                    "path": str(handle.path),
                    "shard_dir": True,
                    "snapshots": live.snapshot_count,
                    "etag": self._etag(handle),
                }
        return {"kind": "stores", "stores": stores, "ingest": self.ingest}

    def _handle_for(self, name: str) -> _StoreHandle:
        handle = self._stores.get(name)
        if handle is None:
            raise ServiceError(
                404,
                f"unknown store {name!r}; serving {sorted(self._stores)}",
            )
        return handle

    def _query_params(
        self, kind: str, query: Mapping[str, str], handle: _StoreHandle
    ) -> dict:
        """Parse and normalize one query's parameters (400 on nonsense)."""
        def number(key: str, default: float | None = None) -> float:
            raw = query.get(key)
            if raw is None:
                if default is None:
                    raise ServiceError(400, f"{kind} needs a {key}= parameter")
                return default
            try:
                value = float(raw)
            except ValueError:
                raise ServiceError(400, f"{key}={raw!r} is not a number") from None
            if not np.isfinite(value) or value <= 0:
                raise ServiceError(400, f"{key} must be finite and positive")
            return value

        def stride() -> int:
            raw = query.get("every", "1")
            try:
                value = int(raw)
            except ValueError:
                raise ServiceError(400, f"every={raw!r} is not an integer") from None
            if value < 1:
                raise ServiceError(400, "every must be >= 1")
            return value

        known = {
            "contacts": {"r"},
            "sessions": {"gap"},
            "zones": {"cell", "every"},
        }.get(kind, {"r", "every"})
        for key in query:
            if key not in known:
                raise ServiceError(
                    400, f"unknown parameter {key!r} for {kind} (accepts {sorted(known)})"
                )
        if kind == "contacts":
            return {"r": number("r")}
        if kind == "sessions":
            assert handle.live is not None
            return {"gap": number("gap", 2.0 * handle.live.metadata.tau)}
        if kind == "zones":
            return {"cell": number("cell", spatial.ZONE_SIZE), "every": stride()}
        return {"r": number("r"), "every": stride()}

    def _answer(
        self,
        handle: _StoreHandle,
        kind: str,
        params: dict,
        if_none_match: str | None,
    ) -> tuple[int, dict[str, str], bytes]:
        with handle.lock:
            self._refresh(handle)
            etag = self._etag(handle)
            with self._stats_lock:
                self.stats.queries += 1
            if if_none_match is not None and etag_matches(if_none_match, etag):
                with self._stats_lock:
                    self.stats.not_modified += 1
                return 304, {"ETag": etag}, b""
            key = (kind, tuple(sorted(params.items())))
            hit = handle.cache.get(key) if self.cache_results else None
            if hit is not None and hit[0] == etag:
                with self._stats_lock:
                    self.stats.cache_hits += 1
                body = hit[1]
            else:
                body = encode(self._compute(handle, kind, params, etag))
                with self._stats_lock:
                    self.stats.recomputes += 1
                if self.cache_results:
                    handle.cache[key] = (etag, body)
            return 200, {"ETag": etag}, body

    def _compute(
        self, handle: _StoreHandle, kind: str, params: dict, etag: str
    ) -> dict:
        live = handle.live
        assert live is not None
        snapshots = live.snapshot_count
        if kind == "status":
            return status_payload(
                store=handle.name,
                path=str(handle.path),
                snapshots=snapshots,
                observations=live.observation_count,
                parts=live.part_count,
                etag=etag,
                metadata=live.metadata,
                ingest=self.ingest,
            )
        if kind == "contacts":
            return contacts_payload(
                live.contact_set(params["r"]),
                store=handle.name,
                snapshots=snapshots,
                r=params["r"],
            )
        if kind == "sessions":
            return sessions_payload(
                live.session_set(params["gap"]),
                store=handle.name,
                snapshots=snapshots,
                gap=params["gap"],
            )
        if snapshots == 0:
            # Strided sample tasks need at least one snapshot; an
            # empty store is a client-visible state, not a crash.
            raise ServiceError(
                409, f"store {handle.name!r} holds no snapshots yet"
            )
        if kind == "zones":
            samples = live.zone_occupation(params["cell"], params["every"])
            return samples_payload(
                "zones", samples,
                store=handle.name, snapshots=snapshots, params=params,
            )
        samples = {
            "degrees": live.degree_array,
            "diameters": live.diameter_array,
            "clustering": live.clustering_array,
        }[kind](params["r"], params["every"])
        return samples_payload(
            kind, samples, store=handle.name, snapshots=snapshots, params=params
        )

    # -- ingest --------------------------------------------------------------

    def handle_post(
        self, path: str, headers: Mapping[str, str], body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        """Route one POST; only ``/v1/<store>/rounds`` exists."""
        segments = [s for s in urlsplit(path).path.split("/") if s]
        if len(segments) != 3 or segments[0] != "v1" or segments[2] != "rounds":
            raise ServiceError(404, f"unknown POST path {path!r}")
        handle = self._handle_for(segments[1])
        if not self.ingest:
            raise ServiceError(
                405, "ingest is disabled; start the service with ingest enabled"
            )
        times, names, blocks, metadata = self._parse_round(body)
        records = sum(len(n) for n in names)
        with self._budget_lock:
            accepted = self._budget.try_request(self._clock(), records)
        if not accepted:
            with self._stats_lock:
                self.stats.ingest_rejected += 1
            raise ServiceError(
                429,
                "ingest request budget exhausted for the current window",
            )
        with handle.lock:
            appender = self._appender_for(handle)
            if metadata is not None:
                appender.metadata = metadata
            try:
                for t, snapshot_names, block in zip(times, names, blocks):
                    appender.append_snapshot(t, snapshot_names, block)
                shard = appender.commit()
            except ValueError as exc:
                # The pending round is now half-appended garbage; drop
                # the appender object (pending rounds live only in
                # memory) and re-adopt the committed state on the next
                # POST.
                handle.appender = None
                raise ServiceError(409, f"round rejected: {exc}") from None
            self._refresh(handle)
            etag = self._etag(handle)
            with self._stats_lock:
                self.stats.ingested_rounds += 1
                self.stats.ingested_snapshots += len(times)
            payload = {
                "store": handle.name,
                "committed_snapshots": len(times),
                "committed_observations": records,
                "shard": shard.name if shard is not None else None,
                "etag": etag,
            }
            return 200, {"ETag": etag}, encode(payload)

    def _appender_for(self, handle: _StoreHandle) -> RtrcDirAppender:
        if handle.appender is None:
            handle.appender = RtrcDirAppender(handle.path)
        return handle.appender

    def _parse_round(
        self, body: bytes
    ) -> tuple[list[float], list[list[str]], list[np.ndarray], TraceMetadata | None]:
        try:
            doc = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(400, f"request body is not valid JSON ({exc})") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("snapshots"), list):
            raise ServiceError(400, "round document needs a 'snapshots' list")
        metadata = None
        if doc.get("metadata") is not None:
            if not isinstance(doc["metadata"], dict):
                raise ServiceError(400, "'metadata' must be an object")
            try:
                metadata = TraceMetadata(**doc["metadata"])
            except (TypeError, ValueError) as exc:
                raise ServiceError(400, f"bad metadata ({exc})") from None
        times: list[float] = []
        names: list[list[str]] = []
        blocks: list[np.ndarray] = []
        for index, snap in enumerate(doc["snapshots"]):
            where = f"snapshots[{index}]"
            if not isinstance(snap, dict):
                raise ServiceError(400, f"{where} must be an object")
            try:
                t = float(snap["t"])
                users = snap["users"]
                xyz = snap["xyz"]
            except (KeyError, TypeError, ValueError):
                raise ServiceError(
                    400, f"{where} needs numeric 't', 'users' and 'xyz'"
                ) from None
            if not isinstance(users, list) or not all(
                isinstance(u, str) for u in users
            ):
                raise ServiceError(400, f"{where}.users must be a list of strings")
            try:
                block = np.asarray(xyz, dtype=np.float64).reshape(len(users), 3)
            except (TypeError, ValueError):
                raise ServiceError(
                    400, f"{where}.xyz must be one [x, y, z] row per user"
                ) from None
            if times and t <= times[-1]:
                raise ServiceError(
                    409, f"{where}: snapshot times must be strictly increasing"
                )
            times.append(t)
            names.append(users)
            blocks.append(block)
        return times, names, blocks, metadata


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP plumbing; all routing lives on the service."""

    server_version = "slmob-query/1"
    protocol_version = "HTTP/1.1"
    # One buffered write per response (flushed by handle_one_request)
    # instead of one unbuffered segment per header line — the default
    # interacts with Nagle + delayed ACK into ~40 ms per exchange on
    # keep-alive connections.
    wbufsize = -1
    disable_nagle_algorithm = True

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def _respond(
        self, status: int, headers: Mapping[str, str], body: bytes
    ) -> None:
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        if status != 304:
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body and status != 304 and self.command != "HEAD":
            self.wfile.write(body)

    def _fail(self, exc: ServiceError) -> None:
        headers = {"Retry-After": "1"} if exc.status == 429 else {}
        self._respond(exc.status, headers, encode(error_payload(exc.message)))

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            status, headers, body = self.service.handle_get(self.path, self.headers)
        except ServiceError as exc:
            self._fail(exc)
        else:
            self._respond(status, headers, body)

    do_HEAD = do_GET  # noqa: N815 (http.server API)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        try:
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                raise ServiceError(400, "bad Content-Length") from None
            limit = self.service._budget.body_limit_bytes
            if length > limit:
                # Mirrors the modeled LSL body limit: the slice does
                # not fit one request — reject before reading it.
                raise ServiceError(
                    413, f"request body of {length} bytes exceeds the {limit} byte limit"
                )
            body = self.rfile.read(length) if length else b""
            status, headers, payload = self.service.handle_post(
                self.path, self.headers, body
            )
        except ServiceError as exc:
            self._fail(exc)
        else:
            self._respond(status, headers, payload)

    def log_message(self, format: str, *args: object) -> None:
        if self.service.verbose:
            super().log_message(format, *args)
