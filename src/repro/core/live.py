"""Live incremental analysis over a growing shard directory.

A streaming crawl (:class:`~repro.trace.RtrcDirAppender`) extends its
store while the measurement is still running; re-running a whole-trace
:class:`~repro.core.analyzer.TraceAnalyzer` after every commit would
re-extract the entire past for each new minute of data.
:class:`LiveAnalyzer` instead treats the store's growth history as a
time partition: every :meth:`refresh` that observes new snapshots adds
one or more *parts* covering exactly the newly appended spans,
extraction runs only over those parts, and the per-part results are
stitched through the same exact boundary merges
:class:`~repro.core.sharded.ShardedAnalyzer` and
:class:`~repro.core.windowed.WindowedAnalyzer` use.  The incremental
answers are therefore bit-for-bit what a full recompute over the
current prefix would produce — pinned against the serial oracle by
``tests/unit/core/test_live.py`` and ``test_live_shard_dir.py``.

Each committed append round already *is* an immutable
``shard-*.rtrc`` file, so every new file becomes one part and, under
``backend="process"``, workers memmap-load the round files directly:
the crawl's own output doubles as the parallel work-distribution
format, nothing is re-materialized.

The one contract the producer guarantees and this class relies on:
the directory is **append-only** — committed shard files never
change, new ones only arrive at the end of the manifest.  A directory
whose committed file list changed is rejected on refresh.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.parallel import (
    SCHEDULER_BACKENDS,
    PartAnalysisError,
    PartScheduler,
)
from repro.core.sharded import BoundaryMergeAnalyzer
from repro.trace import (
    StoreChangedError,
    Trace,
    TraceMetadata,
    list_rtrc_dir,
    read_trace_rtrc,
)

# Re-exported here for compatibility: the error now lives in
# repro.trace (RtrcDirAppender.commit raises it too), but followers
# and their callers historically imported it from this module.
__all__ = ["LiveAnalyzer", "StoreChangedError"]


class LiveAnalyzer(BoundaryMergeAnalyzer):
    """Incrementally extend analyses as a shard directory grows.

    Parameters
    ----------
    path:
        The shard directory an :class:`~repro.trace.RtrcDirAppender`
        is committing rounds into.  It may be empty (a crawl that has
        not committed yet): analyses over zero snapshots return empty
        contact/session lists, and the first :meth:`refresh` that sees
        data makes them live.  A single ``.rtrc`` file is write-once
        and is analyzed with :class:`~repro.core.TraceAnalyzer`
        instead; ``slmob shard-export`` turns one into a directory.
    mmap:
        Memory-map the round files (the default).  Pass False to load
        copies instead — only useful on filesystems without mmap
        support.
    backend:
        Where the per-part extractions run when more than one part
        needs work.  ``"serial"`` (default) — inline, one part at a
        time.  ``"thread"`` — a thread pool over the part views; the
        run-length extraction kernels are numpy-bound and release the
        GIL, so parts overlap.  ``"process"`` — spawned workers
        memmap-load the committed round files as-is.  ``"network"`` —
        the same round files served over an HTTP coordinator to
        ``slmob worker`` processes (see ``network`` below).
        Parallelism pays off when several parts need extraction at
        once — a follower catching up on a long crawl, or the first
        request for a new parameter backfilling every committed round.
    max_workers:
        Pool cap for the parallel backends (default: CPU count).
    network:
        Optional :class:`~repro.distributed.NetworkOptions` for
        ``backend="network"`` — the same round files served over an
        HTTP coordinator to ``slmob worker`` processes, possibly on
        other machines.  Ignored by the other backends.

    Usage
    -----
    Call :meth:`refresh` whenever the producer may have committed new
    snapshots (it returns how many arrived), then query any of the
    :class:`~repro.core.sharded.BoundaryMergeAnalyzer` analyses —
    ``contacts`` / ``contacts_multirange`` / ``sessions`` /
    ``zone_occupation`` / ``degree_array`` / ``diameter_array`` /
    ``clustering_array``::

        live = LiveAnalyzer("crawl-shards")
        while crawling:
            if live.refresh():
                print(len(live.contacts(10.0)), "contacts so far")

    Each query after a refresh extracts only uncached parts;
    previously computed parts are served from a per-part cache and
    merged with the fresh tail.  Merging is cheap (linear in result
    size) compared to extraction, so a long-running crawl pays per
    round roughly the cost of analyzing just that round's data.

    Lifecycle: :meth:`close` (or a ``with`` block) drops the memmaps
    and shuts the worker pool down; cached results stay readable, new
    analyses and refreshes raise.
    """

    def __init__(
        self,
        path: str | Path,
        mmap: bool = True,
        backend: str = "serial",
        max_workers: int | None = None,
        network: object | None = None,
    ) -> None:
        if backend not in SCHEDULER_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of "
                f"{SCHEDULER_BACKENDS}"
            )
        self.path = Path(path)
        if not self.path.is_dir():
            if not self.path.exists():
                raise FileNotFoundError(f"{self.path}: no such shard directory")
            raise ValueError(
                f"{self.path} is a single trace file, which never grows; "
                "analyze it with TraceAnalyzer, or turn it into a shard "
                "directory with 'slmob shard-export' and follow that"
            )
        super().__init__()
        self._label = str(self.path)
        self._mmap = bool(mmap)
        self.backend = backend
        self.metadata: TraceMetadata = TraceMetadata()
        # (kind, part_index, params) -> task result; the incremental
        # heart — parts never change, so their results never expire.
        self._task_cache: dict[tuple, object] = {}
        self._scheduler = PartScheduler(
            backend, max_workers, file_prefix="round", network=network
        )
        self._known_files: list[str] = []
        # Per non-empty round file: (path, first_time, length).
        # Only metadata is retained — part traces are reopened
        # lazily, so a follower of a months-long crawl does not
        # hold one memmap (and file descriptor) per round forever.
        self._part_paths: list[Path] = []
        self._part_meta: list[tuple[float, int]] = []
        self._dir_names: list[str] = []
        self._snapshots = 0
        self._observations = 0
        self._last_time = float("-inf")
        self.refresh()

    # -- lifecycle ----------------------------------------------------------

    def _release(self) -> None:
        """Drop the pool; cached merged results survive.

        New analyses and refreshes raise afterwards — the contract
        shared with :class:`~repro.core.windowed.WindowedAnalyzer` and
        :class:`~repro.core.sharded.ShardedAnalyzer`.
        """
        self._scheduler.close()

    # -- growth tracking ----------------------------------------------------

    def refresh(self) -> int:
        """Observe the producer's commits; returns how many new snapshots.

        New snapshots become new parts (one per committed non-empty
        shard file); analyses requested afterwards extract only those
        parts and re-merge.  A refresh that observes no growth is free
        and invalidates nothing.  Raises :class:`StoreChangedError` if
        the committed file list changed — the append-only contract is
        broken and incremental results would be silently wrong.

        All-or-nothing: no state changes unless every new file loads.
        A mid-loop failure (torn read racing a commit, a file deleted
        by a concurrent compaction) must not leave some parts
        registered while the merged caches still describe the old
        part set — the CLI retries ``TraceFormatError`` and would
        otherwise serve an internally inconsistent view.
        """
        self._check_open()
        if not self.path.is_dir():
            raise FileNotFoundError(f"{self.path}: shard directory is gone")
        files = list_rtrc_dir(self.path)
        known = self._known_files
        if files[: len(known)] != known:
            raise StoreChangedError(
                f"{self.path}: committed shard files changed under the "
                "analyzer; LiveAnalyzer requires an append-only shard "
                "directory (compact only between followers)"
            )
        new_paths: list[Path] = []
        new_meta: list[tuple[float, int]] = []
        dir_names = self._dir_names
        metadata = self.metadata
        last_time = self._last_time
        snapshots = observations = 0
        for name in files[len(known):]:
            trace = read_trace_rtrc(self.path / name, mmap=self._mmap)
            metadata = trace.metadata
            names = trace.columns.users.names
            if (
                self.backend in ("process", "network")
                and names[: len(dir_names)] != dir_names
            ):
                # The process and network backends decode every part's
                # worker payload with the newest file's name table,
                # which is only correct when each round's table is a
                # prefix of the next (true for RtrcDirAppender /
                # to_rtrc_dir / compact_shard_dir output).  A foreign
                # directory with independent interners must fail
                # loudly here, not silently mis-name users.
                raise ValueError(
                    f"{self.path}: shard file {name!r} does not extend the "
                    f"previous files' user table; backend={self.backend!r} "
                    "needs prefix-consistent interners (use "
                    "backend='serial' for foreign shard directories)"
                )
            if len(names) >= len(dir_names):
                dir_names = list(names)
            if len(trace):
                first = float(trace.columns.times[0])
                if first <= last_time:
                    raise StoreChangedError(
                        f"{self.path}: shard file {name!r} is not strictly "
                        "after its predecessors; LiveAnalyzer requires an "
                        "append-only shard directory"
                    )
                new_paths.append(self.path / name)
                new_meta.append((first, len(trace)))
                last_time = trace.end_time
                snapshots += len(trace)
                observations += trace.columns.observation_count
        # Every new file loaded cleanly — commit the whole batch.
        self.metadata = metadata
        self._dir_names = dir_names
        self._part_paths.extend(new_paths)
        self._part_meta.extend(new_meta)
        self._known_files.extend(files[len(known):])
        self._last_time = last_time
        self._snapshots += snapshots
        self._observations += observations
        if snapshots:
            # Merged results are stale; the per-part task cache is not.
            self._contacts.clear()
            self._sessions.clear()
            self._samples.clear()
        return snapshots

    @property
    def snapshot_count(self) -> int:
        """Snapshots observed as of the last refresh."""
        return self._snapshots

    @property
    def observation_count(self) -> int:
        """Observation rows observed as of the last refresh."""
        return self._observations

    @property
    def part_count(self) -> int:
        """Growth parts observed so far: one per committed non-empty
        shard file."""
        return len(self._part_paths)

    @property
    def committed_file_count(self) -> int:
        """Committed shard files observed.

        Unlike :attr:`part_count` this counts *empty* committed rounds
        too, so together with the manifest generation it tags exactly
        the committed prefix this follower has observed — the query
        service's cache-invalidation token.
        """
        return len(self._known_files)

    # -- BoundaryMergeAnalyzer plumbing -------------------------------------

    def _part_trace(self, index: int) -> Trace:
        # Reopened on demand (a header parse, not a load): holding one
        # memmap per committed round would leak an fd per round over a
        # long crawl.
        self._check_open()
        return read_trace_rtrc(self._part_paths[index], mmap=self._mmap)

    def _part_file(self, index: int) -> Path:
        """The committed round file holding part ``index``.

        Process workers memmap it directly.
        """
        return self._part_paths[index]

    @property
    def _names(self) -> Sequence[str]:
        # Round k's user table is a prefix of round k+1's (the appender
        # interns cumulatively; validated on refresh for the process
        # backend), so the newest table decodes every earlier part's
        # ids too.
        return self._dir_names

    def _part_error(self, index: int, kind: str, exc: Exception):
        trace = self._part_trace(index)
        return PartAnalysisError(
            f"{kind} failed on part {index + 1}/{self.part_count} covering "
            f"t=[{trace.start_time:g}, {trace.end_time:g}] "
            f"({len(trace)} snapshots): {exc}"
        )

    def _map(self, kind: str, params_per_part: Sequence[tuple]) -> list[object]:
        """One task result per part, extracting only uncached parts.

        Cache keys include the part's own parameters, so strided
        analyses (whose per-part phase depends only on the lengths of
        *earlier* parts, which never change) hit the cache too.
        Uncached parts fan over the scheduler's backend — several at
        once when a follower is catching up or a new parameter
        backfills the history.
        """
        self._check_open()
        missing = [
            (index, params)
            for index, params in enumerate(params_per_part)
            if (kind, index, params) not in self._task_cache
        ]
        if missing:
            results = self._scheduler.run(
                kind,
                missing,
                part_trace=self._part_trace,
                part_path=self._part_file,
                names=lambda: self._names,
                wrap_error=self._part_error,
            )
            for (index, params), result in zip(missing, results):
                self._task_cache[(kind, index, params)] = result
        return [
            self._task_cache[(kind, index, params)]
            for index, params in enumerate(params_per_part)
        ]

    def _strided_samples(self, kind: str, head: tuple, every: int) -> np.ndarray:
        if not self.part_count:
            raise ValueError(
                f"{self.path}: store holds no snapshots yet; refresh() "
                "after the producer commits"
            )
        return super()._strided_samples(kind, head, every)

    def _part_first_times(self) -> list[float]:
        return [first for first, _ in self._part_meta]

    def _part_lengths(self) -> list[int]:
        return [length for _, length in self._part_meta]
