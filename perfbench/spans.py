"""In-memory spans around the calls into each layer of the pipeline.

A :class:`SpanRecorder` keeps one :class:`Span` per timed call: name,
start, end, the span that caused it and the request it belongs to.
:func:`instrument` rebinds the public functions each layer's callers
use (the names those callers imported, not the defining module's), so
the program under test is unchanged; only the benchmark process, or
the server launcher in this directory, ever calls :func:`instrument`.

A layer's self time is its spans' durations minus the part their child
spans cover, so nested layers (a grid search inside an extraction
inside a merge) are never counted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

#: Header the load generator tags each request with, so client and
#: server spans of one request can be joined.
REQUEST_HEADER = "X-Request-Id"

#: Span name -> per-layer metric its self time is reported under.
LAYER_OF_SPAN = {
    "world.simulate": "world.simulate_s",
    "losgraph.graph": "losgraph.graph_s",
    "grid.pair_search": "grid.pair_search_s",
    "kernels.events": "kernels.event_build_s",
    "kernels.sort": "kernels.event_sort_s",
    "kernels.run_length": "kernels.run_length_s",
    "sessions.extract": "sessions.extract_s",
    "merge.contacts": "merge.contacts_s",
    "merge.sessions": "merge.sessions_s",
    "store.append": "store.append_s",
    "store.commit": "store.commit_s",
    "live.refresh": "live.refresh_s",
    "parallel.run": "parallel.run_s",
    "service.payload": "service.payload_s",
    "service.encode": "service.encode_s",
    "service.handle_get": "service.handle_get_self_s",
    "service.handle_post": "service.handle_post_s",
}


class Span:
    """One timed call: ``[start, end)`` on the recorder's clock."""

    __slots__ = ("id", "name", "start", "end", "parent", "request")

    def __init__(
        self, id: int, name: str, start: float, parent: int | None, request: str | None
    ) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
        }


class SpanRecorder:
    """Collect spans and counters in memory; nothing is written until asked.

    Each thread keeps its own stack of open spans, so a span's parent
    is the innermost span open on the same thread, and a span without
    an explicit request id inherits its parent's.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        item = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent.id if parent is not None else None,
            request,
        )
        stack.append(item)
        try:
            yield item
        finally:
            item.end = time.perf_counter()
            stack.pop()
            self.spans.append(item)

    def count(self, key: str, amount: float) -> None:
        with self._count_lock:
            self.counts[key] += amount

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        counts: Callable[[tuple, dict, object], Iterable[tuple[str, float]]] | None = None,
        request_of: Callable[[tuple, dict], str | None] | None = None,
    ) -> None:
        """Rebind ``owner.attr`` to a copy that records a ``name`` span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            request = request_of(args, kwargs) if request_of is not None else None
            with self.span(name, request):
                result = original(*args, **kwargs)
            if counts is not None:
                for key, amount in counts(args, kwargs, result):
                    self.count(key, amount)
            return result

        setattr(owner, attr, traced)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time of each span's children."""
        covered: dict[int, float] = defaultdict(float)
        for item in self.spans:
            if item.parent is not None:
                covered[item.parent] += item.duration
        totals: dict[str, float] = defaultdict(float)
        for item in self.spans:
            totals[item.name] += item.duration - covered[item.id]
        return dict(totals)

    def totals(self) -> dict[str, float]:
        """Seconds per span name, children included."""
        totals: dict[str, float] = defaultdict(float)
        for item in self.spans:
            totals[item.name] += item.duration
        return dict(totals)


class _TracedNumpy:
    """``numpy`` as one module sees it, with ``lexsort`` timed."""

    def __init__(self, numpy, lexsort) -> None:
        self._numpy = numpy
        self.lexsort = lexsort

    def __getattr__(self, attr: str):
        return getattr(self._numpy, attr)


def _length(result: object) -> int:
    return len(result[0]) if isinstance(result, tuple) else len(result)


def instrument(recorder: SpanRecorder) -> None:
    """Time every layer boundary the workloads cross, in this process."""
    import numpy as np

    from repro.core import analyzer, contacts, kernels, live, losgraph, parallel, sharded
    from repro.service import server
    from repro.trace import sharding

    for module in (kernels, contacts, losgraph):
        for attr in ("planar_neighbour_pairs", "planar_neighbour_pairs_with_distances"):
            if hasattr(module, attr):
                recorder.wrap(
                    module, attr, "grid.pair_search",
                    counts=lambda a, k, r: [("grid.pairs", _length(r))],
                )
    recorder.wrap(contacts, "build_contact_events", "kernels.events")
    for module in (contacts, kernels):
        recorder.wrap(
            module, "contact_set_from_events", "kernels.run_length",
            counts=lambda a, k, r: [("kernels.intervals", len(r))],
        )
    sort = np.lexsort

    def timed_lexsort(keys, *args, **kwargs):
        with recorder.span("kernels.sort"):
            return sort(keys, *args, **kwargs)

    kernels.np = _TracedNumpy(np, timed_lexsort)

    for module in (analyzer, parallel):
        recorder.wrap(module, "extract_session_set", "sessions.extract")
    recorder.wrap(
        sharded, "merge_shard_contacts", "merge.contacts",
        counts=lambda a, k, r: [("merge.parts", len(a[0]))],
    )
    recorder.wrap(
        sharded, "merge_shard_sessions", "merge.sessions",
        counts=lambda a, k, r: [("merge.parts", len(a[0]))],
    )

    def snapshots_of(args: tuple, kwargs: dict, result: object):
        trace, every = args[0], (args[2] if len(args) > 2 else kwargs.get("every", 1))
        return [("losgraph.snapshots", -(-trace.columns.snapshot_count // every))]

    for attr in ("degree_samples", "diameter_series", "clustering_series"):
        recorder.wrap(losgraph, attr, "losgraph.graph", counts=snapshots_of)

    def shard_bytes(args: tuple, kwargs: dict, result: object):
        return [("store.bytes", result.stat().st_size if result is not None else 0)]

    recorder.wrap(sharding.RtrcDirAppender, "append_snapshot", "store.append")
    recorder.wrap(sharding.RtrcDirAppender, "commit", "store.commit", counts=shard_bytes)
    recorder.wrap(live.LiveAnalyzer, "refresh", "live.refresh")
    recorder.wrap(
        parallel.PartScheduler, "run", "parallel.run",
        counts=lambda a, k, r: [("parallel.tasks", len(r))],
    )
    for attr in ("contacts_payload", "sessions_payload", "samples_payload", "status_payload"):
        recorder.wrap(server, attr, "service.payload")
    recorder.wrap(
        server, "encode", "service.encode",
        counts=lambda a, k, r: [("service.body_bytes", len(r))],
    )
    recorder.wrap(
        server.QueryService, "handle_get", "service.handle_get",
        request_of=lambda a, k: a[2].get(REQUEST_HEADER),
    )
    recorder.wrap(
        server.QueryService, "handle_post", "service.handle_post",
        request_of=lambda a, k: a[2].get(REQUEST_HEADER),
    )

