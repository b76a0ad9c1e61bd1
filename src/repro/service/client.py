"""HTTP round sink: stream a crawl into a query service over the wire.

:class:`HttpRoundSink` speaks the crawler's sink protocol
(``append_snapshot`` / ``commit`` / assignable ``metadata`` — the
shape :class:`~repro.monitors.database.TraceDatabase` and the CLI
crawl loop drive) but, instead of writing ``.rtrc`` files, POSTs each
committed round to a :class:`~repro.service.QueryService` ingest
endpoint as one ``/v1/<store>/rounds`` document.  The crawler and the
store no longer share a filesystem — the paper's own deployment shape,
where in-world sensors push observation slices to a web server over
HTTP.

Positions ride as JSON numbers; Python's shortest-round-trip float
``repr`` makes the trip lossless, so a store ingested through this
sink is bit-identical to one written by a local
:class:`~repro.trace.RtrcDirAppender` (pinned by
``tests/unit/service/test_http_sink.py``).

Transient failures are retried through the shared policy in
:mod:`repro.service.transport`: a ``429`` (request budget exhausted),
``502``/``503``/``504``, and transport-level errors — a connection
reset, the service restarting between rounds — all get bounded
backoff with a capped total attempt count, so a long streaming crawl
survives server hiccups instead of dying mid-round.  Non-retryable
statuses (``400`` validation failures, ``409`` time-order conflicts)
raise :class:`ServiceRejectedRound` immediately with the server's
message; an endpoint that stays unreachable through every attempt
raises :class:`ServiceUnreachable`.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import asdict
from typing import Callable

import numpy as np

from repro.service.transport import TransportUnavailable, request_bytes
from repro.trace import TraceMetadata


class ServiceRejectedRound(RuntimeError):
    """The ingest endpoint refused a round (non-retryable status).

    Also raised when a *retryable* status (429/502/503/504) persisted
    through the whole retry budget — the server kept answering, so its
    last verdict is the message worth surfacing.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"ingest rejected with HTTP {status}: {message}")
        self.status = status


class ServiceUnreachable(RuntimeError):
    """The ingest endpoint stayed unreachable through every retry."""

    def __init__(self, url: str, cause: TransportUnavailable) -> None:
        super().__init__(f"ingest failed: {cause}")
        self.url = url
        self.attempts = cause.attempts


class HttpRoundSink:
    """Crawl sink that POSTs committed rounds to a query service.

    Parameters
    ----------
    url:
        The store's base URL, e.g. ``http://127.0.0.1:8700/v1/crawl``
        (``/rounds`` is appended; a trailing slash is tolerated).
    timeout:
        Socket timeout per POST, seconds.
    retries / retry_wait:
        Extra attempts allowed per POST for transient failures (429 /
        502 / 503 / 504 and transport errors), and the base backoff
        used when the server sends no usable ``Retry-After`` (doubled
        per attempt, capped at ``max_backoff``).
    max_backoff:
        Upper bound on the per-attempt backoff wait, seconds.
    sleep:
        Called with each backoff wait, seconds; tests pass a recording
        no-op so a retry loop costs no wall time.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 30.0,
        retries: int = 5,
        retry_wait: float = 1.0,
        max_backoff: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.retry_wait = float(retry_wait)
        self.max_backoff = float(max_backoff)
        self._sleep = sleep
        self.metadata = TraceMetadata()
        self._metadata_sent: dict | None = None
        self._pending: list[dict] = []
        self._users: set[str] = set()
        self._snapshots = 0
        self._observations = 0
        self._rounds_posted = 0
        self._closed = False

    # -- sink protocol -------------------------------------------------------

    def append_snapshot(self, time: float, names, coords) -> None:
        """Buffer one snapshot into the pending round (no I/O yet)."""
        self._require_open()
        rows = list(names)
        block = np.ascontiguousarray(coords, dtype=np.float64).reshape(len(rows), 3)
        self._pending.append(
            {"t": float(time), "users": rows, "xyz": block.tolist()}
        )
        self._users.update(rows)
        self._snapshots += 1
        self._observations += len(rows)

    def commit(self) -> None:
        """POST the pending round; empty rounds are a no-op.

        The durability point moves to the server: when this returns,
        the service has committed the round into its shard directory
        and concurrent queries observe it.
        """
        self._require_open()
        if not self._pending:
            return
        document: dict = {"snapshots": self._pending}
        meta = asdict(self.metadata)
        if meta != self._metadata_sent:
            document["metadata"] = meta
        self._post(json.dumps(document).encode("utf-8"))
        self._metadata_sent = meta
        self._pending = []
        self._rounds_posted += 1

    @property
    def snapshot_count(self) -> int:
        """Snapshots appended so far (posted and pending)."""
        return self._snapshots

    @property
    def observation_count(self) -> int:
        """Observation rows appended so far (posted and pending)."""
        return self._observations

    @property
    def user_count(self) -> int:
        """Distinct users observed so far."""
        return len(self._users)

    @property
    def user_names(self) -> list[str]:
        """Distinct users observed so far (unordered set, listed)."""
        return sorted(self._users)

    @property
    def rounds_posted(self) -> int:
        """Rounds successfully accepted by the service."""
        return self._rounds_posted

    def close(self) -> None:
        """Commit any pending round, then refuse further appends."""
        if self._closed:
            return
        try:
            self.commit()
        finally:
            self._closed = True

    def __enter__(self) -> "HttpRoundSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            # The round that failed mid-crawl is not worth a network
            # retry storm during unwind; drop it unposted.
            self._closed = True

    # -- wire ----------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ValueError(f"{self.url}: sink is closed")

    def _post(self, body: bytes) -> None:
        request = urllib.request.Request(
            f"{self.url}/rounds",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            request_bytes(
                request,
                timeout=self.timeout,
                retries=self.retries,
                backoff=self.retry_wait,
                max_backoff=self.max_backoff,
                sleep=self._sleep,
            )
        except urllib.error.HTTPError as exc:
            raise ServiceRejectedRound(exc.code, self._error_detail(exc)) from None
        except TransportUnavailable as exc:
            raise ServiceUnreachable(self.url, exc) from exc

    @staticmethod
    def _error_detail(exc: urllib.error.HTTPError) -> str:
        try:
            return json.loads(exc.read())["error"]
        except Exception:
            return exc.reason or "unknown error"
