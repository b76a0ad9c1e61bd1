"""Canonical JSON payloads for the query service.

Every payload builder takes the *columnar* analysis results
(:class:`~repro.core.kernels.ContactSet`,
:class:`~repro.trace.SessionSet`, flat sample arrays) — the shapes
both :class:`~repro.core.analyzer.TraceAnalyzer` and
:class:`~repro.core.live.LiveAnalyzer` produce — so the service and
its equivalence tests build responses through the *same* functions:
a service answer over a live follower is byte-identical to one built
from a whole-trace analyzer over the same committed prefix (pinned by
``tests/unit/service/test_query_service.py``).

:func:`encode` fixes the byte form: sorted keys, minimal separators,
UTF-8, one trailing newline.  Floats serialize through Python's
shortest-round-trip ``repr``, so float64 values survive an HTTP
round trip exactly — the HTTP crawler sink relies on this for
bit-for-bit ingest equivalence too.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Mapping

import numpy as np

from repro.core.kernels import ContactSet
from repro.trace import SessionSet, TraceMetadata


def encode(payload: Mapping) -> bytes:
    """The service's canonical JSON bytes for one payload."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _envelope(kind: str, store: str, snapshots: int, params: Mapping) -> dict:
    return {
        "kind": kind,
        "store": store,
        "snapshots": int(snapshots),
        "params": dict(params),
    }


def contacts_payload(
    contact_set: ContactSet, *, store: str, snapshots: int, r: float
) -> dict:
    """Contact intervals under range ``r`` as one JSON document."""
    names = contact_set.names
    payload = _envelope("contacts", store, snapshots, {"r": float(r)})
    payload["count"] = len(contact_set)
    payload["contacts"] = [
        {
            "a": names[a],
            "b": names[b],
            "start": start,
            "end": end,
            "censored": censored,
        }
        for a, b, start, end, censored in zip(
            contact_set.ids_a.tolist(),
            contact_set.ids_b.tolist(),
            contact_set.starts.tolist(),
            contact_set.ends.tolist(),
            contact_set.censored.tolist(),
        )
    ]
    return payload


def sessions_payload(
    session_set: SessionSet, *, store: str, snapshots: int, gap: float
) -> dict:
    """User visits (with per-session trip metrics) as one document."""
    names = session_set.names
    payload = _envelope("sessions", store, snapshots, {"gap": float(gap)})
    payload["count"] = len(session_set)
    payload["sessions"] = [
        {
            "user": names[user],
            "login": login,
            "logout": logout,
            "observations": count,
            "travel_length": length,
        }
        for user, login, logout, count, length in zip(
            session_set.user_ids.tolist(),
            session_set.login_times().tolist(),
            session_set.logout_times().tolist(),
            session_set.observation_counts().tolist(),
            session_set.travel_lengths().tolist(),
        )
    ]
    return payload


def samples_payload(
    kind: str,
    samples: np.ndarray,
    *,
    store: str,
    snapshots: int,
    params: Mapping,
) -> dict:
    """Per-snapshot sample series (zones, degrees, diameters, clustering).

    The full sample array rides along (queries bound its size through
    ``every``); the summary quartet answers dashboard-style callers
    without a client-side pass.
    """
    arr = np.asarray(samples, dtype=np.float64)
    payload = _envelope(kind, store, snapshots, params)
    payload["count"] = int(arr.size)
    payload["samples"] = arr.tolist()
    payload["summary"] = (
        {
            "mean": float(arr.mean()),
            "median": float(np.median(arr)),
            "min": float(arr.min()),
            "max": float(arr.max()),
        }
        if arr.size
        else None
    )
    return payload


def status_payload(
    *,
    store: str,
    path: str,
    snapshots: int,
    observations: int,
    parts: int,
    etag: str,
    metadata: TraceMetadata,
    ingest: bool,
) -> dict:
    """One store's status document (``GET /v1/<store>``).

    ``shard_dir`` is always true — every served store is a shard
    directory — and stays in the document for existing clients.
    """
    return {
        "kind": "status",
        "store": store,
        "path": path,
        "shard_dir": True,
        "snapshots": int(snapshots),
        "observations": int(observations),
        "parts": int(parts),
        "etag": etag,
        "metadata": asdict(metadata),
        "ingest": bool(ingest),
    }


def error_payload(message: str) -> dict:
    """The uniform error document for non-2xx responses."""
    return {"error": message}
