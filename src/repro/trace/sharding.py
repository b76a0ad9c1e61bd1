"""Time-window sharding of columnar traces.

A shard is an ordinary :class:`~repro.trace.Trace` over a contiguous
snapshot range of its parent; because the columnar layout is CSR-flat
and shards share the parent's :class:`~repro.trace.UserInterner`, a
shard split is a handful of array slices and concatenation is a
handful of array concatenations — no re-parsing, no re-interning.

This is the substrate :class:`~repro.core.sharded.ShardedAnalyzer`
fans work over; the split/concat pair round-trips exactly::

    concat_shards(split_time_shards(trace, k)).columns  ==  trace.columns
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.trace.columnar import ColumnarStore, UserInterner, empty_store
from repro.trace.storage import (
    MAGIC,
    VERSION,
    StoreChangedError,
    TraceFormatError,
    _align,
    _is_gzip,
    _METADATA_FIELDS,
    _PREAMBLE,
    _SECTION_DTYPES,
    _tempfile_for,
    read_rtrc_header,
    read_store_rtrc,
    read_trace_rtrc,
    write_store_rtrc,
    write_trace_rtrc,
)
from repro.trace.trace import Trace, TraceMetadata

#: Name of the shard-directory manifest written by :func:`to_rtrc_dir`.
MANIFEST_NAME = "manifest.json"


def shard_edges(snapshot_count: int, k: int) -> np.ndarray:
    """Snapshot boundaries of an even ``k``-way split — ``(k + 1,)`` int64.

    Shard ``i`` covers snapshots ``edges[i]:edges[i + 1]``; the first
    ``S % k`` shards get one extra snapshot (the same partition
    ``np.array_split`` produces), and with ``k`` larger than the
    snapshot count the tail shards are empty.
    """
    if k < 1:
        raise ValueError(f"shard count must be >= 1, got {k}")
    sizes = np.full(k, snapshot_count // k, dtype=np.int64)
    sizes[: snapshot_count % k] += 1
    edges = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(sizes, out=edges[1:])
    return edges


def split_time_shards(trace: Trace, k: int) -> list[Trace]:
    """Partition a trace into ``k`` contiguous time-window shards.

    Snapshots are split as evenly as possible (the first ``S % k``
    shards get one extra snapshot); with ``k`` larger than the
    snapshot count the tail shards are empty.  All shards share the
    parent's metadata and interner, so interned ids stay comparable
    across shards and :func:`concat_shards` restores the parent
    exactly.  Shards are zero-copy slice views
    (:meth:`~repro.trace.columnar.ColumnarStore.slice_snapshots`), so
    splitting a memmap-backed trace touches no data pages.
    """
    edges = shard_edges(trace.columns.snapshot_count, k)
    return [
        Trace.from_columns(
            trace.columns.slice_snapshots(int(lo), int(hi)), trace.metadata
        )
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


def to_rtrc_dir(
    trace: Trace,
    k: int,
    directory: str | Path,
    gzip_shards: bool = False,
) -> list[Path]:
    """Materialize ``k`` per-shard ``.rtrc`` files under ``directory``.

    This is the on-disk counterpart of :func:`split_time_shards`: each
    shard (empty tail shards included) becomes its own memmappable
    file, so parallel workers — process pools, other machines — can
    load exactly their slice with zero parsing and no shared state.
    Every shard file carries the parent's full interner, so interned
    ids stay comparable across shard files.

    A ``manifest.json`` records the shard order, per-shard snapshot
    counts and time ranges; :func:`read_rtrc_dir` uses it to restore
    the shards in order, and ``concat_shards(read_rtrc_dir(d))``
    round-trips the original trace bit-for-bit.  The directory layout
    and manifest schema are specified in ``docs/file-format.md``.

    Parameters
    ----------
    trace:
        The trace to split; ``directory`` is created if needed.
    k:
        Number of contiguous time shards (the first ``S % k`` get one
        extra snapshot; ``k`` beyond the snapshot count yields empty
        tail shards, which are still written so the manifest keeps
        the requested shard count).
    gzip_shards:
        Write ``.rtrc.gz`` shards — smaller on disk but loaded in
        memory instead of memmapped; prefer plain shards for worker
        fan-out.

    Returns the shard file paths, in time order.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    shards = split_time_shards(trace, k)
    suffix = ".rtrc.gz" if gzip_shards else ".rtrc"
    paths: list[Path] = []
    for index, shard in enumerate(shards):
        paths.append(write_trace_rtrc(shard, target / f"shard-{index:05d}{suffix}"))
    write_shard_manifest(
        target,
        [p.name for p in paths],
        [len(s) for s in shards],
        [[s.start_time, s.end_time] if len(s) else None for s in shards],
    )
    return paths


def _fsync_path(path: Path) -> None:
    """Flush one file's (or directory's) data and metadata to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_shard_manifest(
    directory: Path,
    files: Sequence[str],
    snapshot_counts: Sequence[int],
    time_ranges: Sequence[list[float] | None],
    generation: int = 0,
    fsync: bool = False,
) -> Path:
    """Atomically (re)write a shard directory's ``manifest.json``.

    The write goes through a sibling temp file plus rename, so a
    reader never parses a half-written manifest and a crash leaves
    the previous manifest intact — the manifest swap is the commit
    point for both append rounds (:class:`RtrcDirAppender`) and
    compaction (:func:`compact_shard_dir`).  ``generation`` (omitted
    while zero) counts compactions; compacted shard files carry it in
    their names so a compaction never overwrites a file an old
    manifest still references.
    """
    manifest = {
        "format": "rtrc-shard-dir",
        "version": 1,
        "shards": len(files),
        "files": list(files),
        "snapshot_counts": list(snapshot_counts),
        "time_ranges": list(time_ranges),
    }
    if generation:
        manifest["generation"] = generation
    target = directory / MANIFEST_NAME
    payload = json.dumps(manifest, indent=2) + "\n"
    fd, tmp_name = _tempfile_for(target)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, target)
        if fsync:
            _fsync_path(directory)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def read_shard_manifest(directory: str | Path) -> dict | None:
    """Parse a shard directory's manifest, or ``None`` when absent.

    Unreadable manifests (bad JSON, missing keys) raise
    :class:`~repro.trace.TraceFormatError` — a directory that claims
    to be a shard dir but cannot say what it holds is corrupt, not
    foreign.
    """
    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        files = manifest["files"]
        if not isinstance(files, list):
            raise TypeError(f"'files' is {type(files).__name__}, not a list")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise TraceFormatError(
            f"{manifest_path}: unreadable shard manifest ({exc})"
        ) from exc
    return manifest


def shard_dir_generation(directory: str | Path) -> tuple[int, int]:
    """``(compaction generation, committed file count)`` of a shard dir.

    Every commit grows the file count and every compaction bumps the
    generation (resetting the count), so the pair changes on *exactly*
    the events that can change query results over the directory — a
    ready-made cache-invalidation token.  The query service renders it
    as the HTTP ETag of its cached answers.  A manifest-less (foreign)
    directory reports generation 0 over the globbed file list.
    """
    manifest = read_shard_manifest(directory)
    if manifest is None:
        return (0, len(list_rtrc_dir(directory)))
    return (int(manifest.get("generation", 0)), len(manifest["files"]))


def list_rtrc_dir(directory: str | Path) -> list[str]:
    """Shard file names of a directory, in load order.

    The manifest fixes the order (and may legitimately be empty — a
    streaming shard dir whose first round has not committed yet);
    without one (foreign directories) the ``shard-*`` files are taken
    in name order.  An empty list means "no shards yet", not an error
    — callers that need at least one shard check themselves.
    """
    source = Path(directory)
    manifest = read_shard_manifest(source)
    if manifest is not None:
        return [str(name) for name in manifest["files"]]
    return sorted(
        p.name for p in source.glob("shard-*.rtrc*") if not p.name.endswith(".tmp")
    )


def read_rtrc_dir(directory: str | Path, mmap: bool = True) -> list[Trace]:
    """Load the shard traces written by :func:`to_rtrc_dir`, in order.

    The manifest fixes the order; without one (foreign directories) the
    ``shard-*`` files are taken in name order.  When every shard file
    carries the same user table — always true for :func:`to_rtrc_dir`
    output — the loaded stores are re-pointed at one shared interner,
    so downstream code (``concat_shards``, the sharded analyzer
    merges) sees ids exactly as if the shards had been split in
    memory.

    With ``mmap`` (the default) each shard is a lazy memory-mapped
    view — opening a directory of huge shards costs one header parse
    per file; pass ``False`` to load copies.  Unreadable manifests and
    shard files named by a manifest but missing on disk raise
    :class:`~repro.trace.TraceFormatError`.
    """
    source = Path(directory)
    files = list_rtrc_dir(source)
    if not files:
        raise TraceFormatError(
            f"{source}: not a shard directory — no shard files found"
        )
    shards = []
    for name in files:
        try:
            shards.append(read_trace_rtrc(source / name, mmap=mmap))
        except FileNotFoundError as exc:
            raise TraceFormatError(
                f"{source}: manifest names missing shard file {name!r}"
            ) from exc
    # Re-share one interner object across shards whose name tables
    # agree (ColumnarStore treats `users` as an immutable table, so
    # swapping in an equal one is safe and makes ids pass through
    # concat_stores untouched).
    first = shards[0].columns.users
    for shard in shards[1:]:
        if shard.columns.users.names == first.names:
            shard.columns.users = first
    return shards


def concat_stores(
    stores: Sequence[ColumnarStore],
    users: UserInterner | None = None,
) -> ColumnarStore:
    """Concatenate time-ordered stores into one store.

    Snapshot times must be strictly increasing across the
    concatenation (shards out of order are rejected by the store's own
    validation).  When every input shares one interner object the ids
    pass through untouched; otherwise names are re-interned into a
    merged table and the id columns are remapped through it.
    """
    inputs = list(stores)
    stores = [s for s in inputs if s.snapshot_count]
    if not stores:
        if users is None:
            users = inputs[0].users if inputs else None
        return empty_store(users)
    shared = users is None and all(s.users is stores[0].users for s in stores)
    # NB: an empty interner is falsy (it defines __len__), so the
    # caller-supplied table must be tested against None explicitly.
    target = (
        stores[0].users
        if shared
        else (users if users is not None else UserInterner())
    )
    times = np.concatenate([s.times for s in stores])
    counts = np.concatenate([np.diff(s.snapshot_offsets) for s in stores])
    offsets = np.zeros(len(times) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if shared:
        user_ids = np.concatenate([s.user_ids for s in stores])
    else:
        remapped = []
        for s in stores:
            mapping = np.fromiter(
                (target.intern(name) for name in s.users.names),
                dtype=np.int64,
                count=len(s.users),
            )
            remapped.append(mapping[s.user_ids] if len(s.user_ids) else s.user_ids)
        user_ids = np.concatenate(remapped)
    xyz = np.concatenate([s.xyz for s in stores])
    return ColumnarStore(times, offsets, user_ids, xyz, target)


def concat_shards(shards: Sequence[Trace]) -> Trace:
    """Concatenate time-ordered shard traces back into one trace.

    Metadata is taken from the first shard; shard times must be
    strictly increasing across the sequence.
    """
    if not shards:
        raise ValueError("cannot concatenate zero shards")
    store = concat_stores([shard.columns for shard in shards])
    return Trace.from_columns(store, shards[0].metadata)


# -- appendable shard directories -------------------------------------------


class RtrcDirAppender:
    """Stream a crawl into a shard *directory*: one file per round.

    This is the only live store: every committed append round becomes
    a brand-new immutable ``shard-*.rtrc`` file plus an atomic
    ``manifest.json`` swap.  Because committed rounds never change, a
    long-running crawl is analyzable *in parallel while it grows*:
    process workers memmap-load the round files directly
    (:class:`~repro.core.live.LiveAnalyzer` with ``backend="process"``
    reuses them as its part files — nothing is re-materialized), and
    readers racing an append only ever see fully written files through
    the previous or the next manifest.

    Parameters
    ----------
    directory:
        The shard directory to create or extend.  An existing
        directory written by :func:`to_rtrc_dir`, a previous appender,
        or :func:`compact_shard_dir` is resumed: the cumulative user
        table is rebuilt from the committed files (each file's table
        is a prefix of the next, so interned ids stay comparable
        across every file, old and new), and shard files present on
        disk but absent from the manifest — the debris of a crash
        between the file write and the manifest swap — are deleted
        (``recovered_files``).
    metadata:
        Trace metadata stamped onto every round file this appender
        writes.  Defaults to the newest committed file's metadata for
        an existing directory and to the
        :class:`~repro.trace.TraceMetadata` defaults otherwise; the
        :attr:`metadata` property is assignable any time (monitors
        learn the land only on attach).
    fsync:
        When True every commit fsyncs the round file and the
        directory before, and the manifest after, the swap — making
        the commit durable against power loss, not just process
        crash.  Off by default: the crawl loop favours throughput,
        and a torn commit is recovered on reopen either way.
    policy:
        Optional :class:`CompactionPolicy`.  When set, every commit is
        followed by :meth:`maybe_compact`: retention, streaming
        compaction and tiering run as their thresholds come due, and
        the appender re-adopts each swapped manifest so the crawl just
        keeps going — followers see the generation bump and re-open.

    It is the monitors' streaming sink::

        with RtrcDirAppender("crawl-shards/", metadata=meta) as out:
            for t, names, coords in observations:
                out.append_snapshot(t, names, coords)
                ...
                out.commit()   # this round becomes shard-0000N.rtrc

    Pending (uncommitted) snapshots live in memory and are lost on a
    crash — the manifest swap in :meth:`commit` is the durability
    point, and it publishes whole rounds only, so a reader can never
    observe a torn round.
    """

    def __init__(
        self,
        directory: str | Path,
        metadata: TraceMetadata | None = None,
        *,
        fsync: bool = False,
        policy: "CompactionPolicy | None" = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fsync = bool(fsync)
        #: Lifecycle policy run after every commit (assignable; None = manual).
        self.policy = policy
        self._users = UserInterner()
        self._metadata = metadata if metadata is not None else TraceMetadata()
        self._files: list[str] = []
        self._counts: list[int] = []
        self._ranges: list[list[float] | None] = []
        self._generation = 0
        self._committed_s = 0
        self._committed_n = 0
        self._last_time = float("-inf")
        self._closed = False
        #: Orphaned shard files deleted while opening (crash debris).
        self.recovered_files: list[str] = []
        # The pending round, in memory until commit.
        self._pending_times: list[float] = []
        self._pending_ids: list[np.ndarray] = []
        self._pending_xyz: list[np.ndarray] = []
        self._pending_rows = 0
        self._adopt_existing(metadata)
        # Round files are named past the highest index on disk, not by
        # file count: after retention drops a prefix the count shrinks
        # while the high indices survive, and a count-based name would
        # silently overwrite a committed round.
        self._next_index = (
            max((_shard_index(name) for name in self._files), default=-1) + 1
        )
        if read_shard_manifest(self.directory) is None:
            # A fresh directory becomes self-describing immediately:
            # an empty manifest distinguishes "no rounds committed
            # yet" from "not a shard directory".
            self._write_manifest()

    # -- construction -------------------------------------------------------

    def _adopt_existing(self, metadata: TraceMetadata | None) -> None:
        manifest = read_shard_manifest(self.directory)
        if manifest is not None:
            files = [str(name) for name in manifest["files"]]
            self._generation = int(manifest.get("generation", 0))
        else:
            files = list_rtrc_dir(self.directory)
        for name in files:
            path = self.directory / name
            try:
                store, file_meta = read_store_rtrc(path, mmap=True)
            except FileNotFoundError as exc:
                raise TraceFormatError(
                    f"{self.directory}: manifest names missing shard file "
                    f"{name!r}"
                ) from exc
            for user in store.users.names:
                self._users.intern(user)
            count = store.snapshot_count
            self._files.append(name)
            self._counts.append(count)
            if count:
                first = float(store.times[0])
                last = float(store.times[-1])
                if last <= self._last_time or first <= self._last_time:
                    raise TraceFormatError(
                        f"{self.directory}: shard file {name!r} is not "
                        "strictly after its predecessors; the directory is "
                        "not a time-ordered shard dir"
                    )
                self._ranges.append([first, last])
                self._last_time = last
                self._committed_s += count
                self._committed_n += store.observation_count
            else:
                self._ranges.append(None)
            if metadata is None:
                self._metadata = file_meta
        if manifest is not None:
            known = set(files)
            for path in sorted(self.directory.glob("shard-*.rtrc*")):
                if path.name not in known and not path.name.endswith(".tmp"):
                    path.unlink()
                    self.recovered_files.append(path.name)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Commit the pending round (if any); idempotent."""
        if self._closed:
            return
        try:
            self.commit()
        finally:
            self._closed = True

    def __enter__(self) -> "RtrcDirAppender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ValueError(f"{self.directory}: appender is closed")

    # -- shape ---------------------------------------------------------------

    @property
    def snapshot_count(self) -> int:
        """Snapshots written so far (committed and pending)."""
        return self._committed_s + len(self._pending_times)

    @property
    def observation_count(self) -> int:
        """Observation rows written so far (committed and pending)."""
        return self._committed_n + self._pending_rows

    @property
    def committed_snapshot_count(self) -> int:
        """Snapshots a concurrent reader is guaranteed to see."""
        return self._committed_s

    @property
    def shard_count(self) -> int:
        """Committed round files so far."""
        return len(self._files)

    @property
    def shard_files(self) -> list[str]:
        """Committed round file names, in time order."""
        return list(self._files)

    @property
    def user_count(self) -> int:
        """Distinct users interned so far."""
        return len(self._users)

    @property
    def user_names(self) -> list[str]:
        """Interned user names, indexed by id.  Treat as read-only."""
        return self._users.names

    @property
    def last_time(self) -> float:
        """Timestamp of the newest appended snapshot (-inf when empty)."""
        return self._last_time if not self._pending_times else self._pending_times[-1]

    @property
    def metadata(self) -> TraceMetadata:
        """Trace metadata stamped on round files (assignable)."""
        return self._metadata

    @metadata.setter
    def metadata(self, value: TraceMetadata) -> None:
        self._metadata = value

    # -- appends -------------------------------------------------------------

    def append_snapshot(
        self,
        time: float,
        names: Sequence[str],
        coords: np.ndarray | Sequence[Sequence[float]],
    ) -> None:
        """Buffer one snapshot into the pending round.

        ``time`` must be strictly greater than every earlier snapshot
        in the directory; ``names`` may repeat users across snapshots
        but not within one.  Nothing touches disk until :meth:`commit`.
        """
        self._require_open()
        t = float(time)
        if t <= self.last_time:
            raise ValueError(
                f"snapshot times must be strictly increasing: "
                f"{t} after {self.last_time}"
            )
        rows = len(names)
        block = np.ascontiguousarray(coords, dtype=np.float64).reshape(rows, 3)
        if len(set(names)) != rows:
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise ValueError(f"user {name!r} appears twice at t={t}")
                seen.add(name)
        ids = np.fromiter(
            (self._users.intern(name) for name in names),
            dtype=np.int64,
            count=rows,
        )
        self._pending_times.append(t)
        self._pending_ids.append(ids)
        self._pending_xyz.append(block)
        self._pending_rows += rows

    def commit(self) -> Path | None:
        """Publish the pending round as a new shard file.

        The round's snapshots are written as one immutable
        ``shard-*.rtrc`` file (via the usual temp-file + rename), then
        the manifest is atomically swapped to include it — the commit
        point.  A crash in between leaves an orphan file the next
        appender deletes and a manifest that never mentions it, so
        concurrent readers always load a consistent committed prefix.
        Returns the new shard file's path, or ``None`` when nothing
        was pending.

        Raises :class:`~repro.trace.StoreChangedError` when the
        directory's manifest no longer matches the state this appender
        opened with — the signature of a concurrent
        :func:`compact_shard_dir` (generation bump, rewritten file
        list).  Writing this appender's stale manifest would silently
        resurrect the pre-compaction file list (whose files are
        already unlinked) and lose every post-compaction round, so the
        commit refuses instead; re-open the appender over the
        compacted directory to resume.
        """
        self._require_open()
        if not self._pending_times:
            return None
        self._check_not_superseded()
        count = len(self._pending_times)
        times = np.asarray(self._pending_times, dtype=np.float64)
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum([len(ids) for ids in self._pending_ids], out=offsets[1:])
        user_ids = (
            np.concatenate(self._pending_ids)
            if self._pending_rows
            else np.empty(0, dtype=np.int64)
        )
        xyz = (
            np.concatenate(self._pending_xyz)
            if self._pending_rows
            else np.empty((0, 3), dtype=np.float64)
        )
        store = ColumnarStore(times, offsets, user_ids, xyz, self._users)
        name = f"shard-{self._next_index:05d}.rtrc"
        path = write_store_rtrc(store, self._metadata, self.directory / name)
        if self._fsync:
            # The round file's blocks (same inode across the rename)
            # and its directory entry must be durable before the
            # manifest names it, or a power loss could publish a
            # file whose data never reached disk.
            _fsync_path(path)
            _fsync_path(self.directory)
        try:
            # Re-checked after the (slow) round-file write so a
            # compaction landing mid-commit is still caught before the
            # manifest swap publishes stale state; the fresh round
            # file is unlinked rather than left as crash debris.
            self._check_not_superseded()
        except StoreChangedError:
            try:
                path.unlink()
            except OSError:
                pass
            raise
        self._files.append(name)
        self._counts.append(count)
        self._ranges.append([float(times[0]), float(times[-1])])
        self._committed_s += count
        self._committed_n += self._pending_rows
        self._last_time = float(times[-1])
        self._next_index += 1
        self._pending_times = []
        self._pending_ids = []
        self._pending_xyz = []
        self._pending_rows = 0
        self._write_manifest()
        if self.policy is not None:
            # The policy may fold the just-committed round into a
            # compacted shard: the returned path is the round file as
            # committed, but it can already be unlinked (its data lives
            # on in the generation-tagged shard).
            self.maybe_compact()
        return path

    def _check_not_superseded(self) -> None:
        """Refuse to commit over a manifest this appender did not write.

        The appender caches the manifest state it opened with (or last
        wrote); a concurrent :func:`compact_shard_dir` bumps the
        generation and replaces the file list, so committing the
        cached state would atomically *unpublish* the compacted files.
        Comparing generation plus file list catches that (and any
        other external rewrite) at the last moment before the swap.
        """
        manifest = read_shard_manifest(self.directory)
        if manifest is None:
            raise StoreChangedError(
                f"{self.directory}: manifest.json disappeared under the "
                "appender; re-open the appender to resume"
            )
        generation = int(manifest.get("generation", 0))
        files = [str(name) for name in manifest["files"]]
        if generation != self._generation or files != self._files:
            raise StoreChangedError(
                f"{self.directory}: shard directory was compacted (or "
                f"otherwise rewritten) under this appender — manifest is "
                f"at generation {generation} with {len(files)} file(s), "
                f"appender opened at generation {self._generation} with "
                f"{len(self._files)} file(s); re-open the appender over "
                "the compacted directory to resume appending"
            )

    def _write_manifest(self) -> None:
        write_shard_manifest(
            self.directory,
            self._files,
            self._counts,
            self._ranges,
            self._generation,
            fsync=self._fsync,
        )

    # -- lifecycle policy ----------------------------------------------------

    def maybe_compact(self, policy: "CompactionPolicy | None" = None) -> bool:
        """Run the due lifecycle passes; ``True`` when anything changed.

        Checks ``policy`` (defaulting to the appender's own) and runs,
        in order: retention, the streaming compaction, tiering —
        re-adopting the swapped manifest after each pass so this
        appender's next commit sees its own lifecycle work rather
        than tripping :class:`~repro.trace.StoreChangedError`.
        Called automatically after every :meth:`commit` when the
        appender was constructed with a policy; callable manually
        between commits otherwise.  Refuses to run with snapshots
        pending — lifecycle passes rewrite committed state only.
        """
        self._require_open()
        policy = policy if policy is not None else self.policy
        if policy is None:
            raise ValueError(
                f"{self.directory}: no CompactionPolicy configured; pass one "
                "to maybe_compact() or to the appender"
            )
        if self._pending_times:
            raise ValueError(
                f"{self.directory}: {len(self._pending_times)} pending "
                "snapshot(s); commit the round before running the lifecycle"
            )
        changed = False
        if policy.retain_for is not None and self._files:
            if retain_shard_dir(self.directory, policy.retain_for):
                self._readopt()
                changed = True
        # A directory already at (or under) the target shard count
        # cannot be improved by compacting — and small stores carry an
        # irreducible header fraction, so re-checking slack there would
        # rewrite the same file after every commit, forever.
        if len(self._files) > policy.target_shards:
            slack = (
                shard_dir_slack(self.directory)
                if policy.max_slack_fraction is not None
                else 0.0
            )
            if policy.compaction_due(len(self._files), slack):
                compact_shard_dir(
                    self.directory,
                    policy.target_shards,
                    batch_snapshots=policy.batch_snapshots,
                )
                self._readopt()
                changed = True
        if policy.tier_after is not None and self._files:
            if tier_shard_dir(self.directory, policy.tier_after):
                self._readopt()
                changed = True
        return changed

    def _readopt(self) -> None:
        """Adopt the manifest a lifecycle pass just swapped in.

        Rebuilds the cached file list, counts, ranges, generation and
        naming cursor from disk.  The in-memory interner is left
        untouched: compaction merges the per-file prefix tables into
        exactly the cumulative table this appender already holds, and
        retention only drops files whose users the survivors' tables
        still cover, so future round files keep the prefix property.
        """
        manifest = read_shard_manifest(self.directory)
        if manifest is None:
            raise StoreChangedError(
                f"{self.directory}: manifest.json disappeared under the "
                "appender; re-open the appender to resume"
            )
        self._files = [str(name) for name in manifest["files"]]
        self._generation = int(manifest.get("generation", 0))
        self._counts = [int(c) for c in manifest.get("snapshot_counts", [])]
        self._ranges = [
            [float(r[0]), float(r[1])] if r else None
            for r in manifest.get("time_ranges", [])
        ]
        self._committed_s = sum(self._counts)
        self._committed_n = 0
        self._last_time = float("-inf")
        for name, rng in zip(self._files, self._ranges):
            header = read_rtrc_header(self.directory / name)
            self._committed_n += int(header["sections"]["user_ids"]["shape"][0])
            if rng:
                self._last_time = float(rng[1])
        self._next_index = (
            max((_shard_index(name) for name in self._files), default=-1) + 1
        )


# -- compaction and the storage lifecycle ------------------------------------

#: Snapshots the streaming compactor copies per batch.  Peak memory is
#: proportional to one batch's rows, never the store's.
DEFAULT_COMPACT_BATCH_SNAPSHOTS = 4096


def _lifecycle_checkpoint(event: str) -> None:
    """Fault-injection seam of the lifecycle rewrites — a no-op here.

    The streaming compactor, the tiering pass and the retention pass
    call this at every point a crash could land: after each copied
    batch, after each published file, immediately before and after the
    manifest swap, and after the old-file cleanup.  The fault suite
    (``tests/unit/trace/test_lifecycle_faults.py``) monkeypatches it
    to raise at the N-th call for every N and asserts readers only
    ever see the old or the new generation — never a torn mix.
    """


class _CompactSource:
    """One input shard file of a streaming compaction.

    Pass 1 records the cheap facts (shapes, name table, snapshot
    offsets, time endpoints) and the per-file bases that place the
    file in the global snapshot/row order.  Plain files stay open as
    lazy memmaps; gzipped cold files are dropped after the scan and
    re-inflated on demand one at a time, so the working set never
    holds more than one decompressed cold file.
    """

    __slots__ = (
        "path",
        "snap_base",
        "row_base",
        "snapshot_count",
        "row_count",
        "names",
        "offsets",
        "mapping",
        "metadata",
        "first_time",
        "last_time",
        "_store",
        "_keep",
    )

    def __init__(self, path: Path, snap_base: int, row_base: int) -> None:
        self.path = Path(path)
        store, self.metadata = read_store_rtrc(self.path, mmap=True)
        self.snap_base = int(snap_base)
        self.row_base = int(row_base)
        self.snapshot_count = store.snapshot_count
        self.row_count = store.observation_count
        self.names = store.users.names
        # A private copy: tiny (S + 1 ints), and it must not pin the
        # decompressed buffer of a gzipped file after release().
        self.offsets = np.array(store.snapshot_offsets, dtype=np.int64)
        self.mapping: np.ndarray | None = None
        if self.snapshot_count:
            self.first_time = float(store.times[0])
            self.last_time = float(store.times[-1])
        else:
            self.first_time = self.last_time = float("nan")
        self._keep = not _is_gzip(self.path)
        self._store = store if self._keep else None

    def store(self) -> ColumnarStore:
        if self._store is None:
            self._store, _ = read_store_rtrc(self.path, mmap=True)
        return self._store

    def release(self) -> None:
        """Drop a gzipped file's in-memory store; memmaps stay."""
        if not self._keep:
            self._store = None


def _iter_file_spans(sources, lo: int, hi: int):
    """``(source, local_a, local_b)`` spans covering global ``[lo, hi)``."""
    for src in sources:
        a = max(lo, src.snap_base) - src.snap_base
        b = min(hi, src.snap_base + src.snapshot_count) - src.snap_base
        if a < b:
            yield src, int(a), int(b)


def _global_rows(sources, pos: int) -> int:
    """Observation rows preceding global snapshot boundary ``pos``."""
    for src in sources:
        if pos <= src.snap_base + src.snapshot_count:
            return src.row_base + int(src.offsets[pos - src.snap_base])
    last = sources[-1]
    return last.row_base + last.row_count


def _time_at(sources, pos: int) -> float:
    """Snapshot time at global index ``pos``."""
    for src in sources:
        if src.snap_base <= pos < src.snap_base + src.snapshot_count:
            value = float(src.store().times[pos - src.snap_base])
            src.release()
            return value
    raise IndexError(f"snapshot {pos} beyond the shard directory")


def _section_chunks(section: str, sources, lo: int, hi: int, row0: int, batch: int):
    """Yield one output section's payload as bounded-size array chunks.

    The concatenation of the yielded chunks' bytes equals the section
    a materializing ``concat → split → write`` would have produced —
    offsets rebased to the output shard, ids remapped through the
    merged user table — while never holding more than ``batch``
    snapshots' worth of rows.
    """
    if section == "snapshot_offsets":
        yield np.zeros(1, dtype="<i8")
    for src, a, b in _iter_file_spans(sources, lo, hi):
        store = src.store()
        for j in range(a, b, batch):
            k = min(j + batch, b)
            if section == "times":
                yield np.ascontiguousarray(store.times[j:k], dtype="<f8")
            elif section == "snapshot_offsets":
                rebase = src.row_base - row0
                yield np.ascontiguousarray(
                    src.offsets[j + 1 : k + 1] + rebase, dtype="<i8"
                )
            elif section == "user_ids":
                r0, r1 = int(src.offsets[j]), int(src.offsets[k])
                ids = np.ascontiguousarray(store.user_ids[r0:r1], dtype="<i8")
                if src.mapping is not None and len(ids):
                    ids = src.mapping[ids]
                yield np.ascontiguousarray(ids, dtype="<i8")
            else:  # xyz
                r0, r1 = int(src.offsets[j]), int(src.offsets[k])
                yield np.ascontiguousarray(store.xyz[r0:r1], dtype="<f8")
        src.release()


def _write_streamed_shard(
    target: Path,
    sources,
    lo: int,
    hi: int,
    row0: int,
    rows: int,
    target_names: Sequence[str],
    metadata: TraceMetadata,
    batch: int,
    gzip_out: bool,
) -> Path:
    """Stream one compacted output shard, byte-identical to a one-shot write.

    All output shapes are known from the pass-1 scan, so the preamble,
    JSON header and section offsets are computed exactly as
    ``write_store_rtrc`` would and the section payloads are then
    copied through in snapshot batches — for plain files the result is
    bit-for-bit what materializing the slice would have written (the
    gzip container differs only in its embedded mtime).  Written to a
    sibling temp file and renamed into place like every other
    publication in this module.
    """
    s_count = int(hi - lo)
    shapes = {
        "times": [s_count],
        "snapshot_offsets": [s_count + 1],
        "user_ids": [int(rows)],
        "xyz": [int(rows), 3],
    }
    sections: dict[str, dict[str, object]] = {}
    cursor = 0
    for name, dtype in _SECTION_DTYPES:
        offset = _align(cursor)
        nbytes = int(np.prod(shapes[name], dtype=np.int64)) * np.dtype(dtype).itemsize
        sections[name] = {
            "dtype": dtype,
            "shape": shapes[name],
            "offset": offset,
            "nbytes": nbytes,
        }
        cursor = offset + nbytes
    header = {
        "metadata": {name: getattr(metadata, name) for name in _METADATA_FIELDS},
        "users": list(target_names),
        "sections": sections,
    }
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    data_start = _align(_PREAMBLE.size + len(header_bytes))
    fd, tmp_name = _tempfile_for(target)
    try:
        with os.fdopen(fd, "wb") as raw:
            handle = gzip.open(raw, "wb") if gzip_out else raw
            try:
                handle.write(_PREAMBLE.pack(MAGIC, VERSION, 0, len(header_bytes)))
                handle.write(header_bytes)
                handle.write(b"\0" * (data_start - _PREAMBLE.size - len(header_bytes)))
                cursor = 0
                for name, _ in _SECTION_DTYPES:
                    offset = int(sections[name]["offset"])  # type: ignore[arg-type]
                    handle.write(b"\0" * (offset - cursor))
                    written = 0
                    for chunk in _section_chunks(name, sources, lo, hi, row0, batch):
                        payload = chunk.tobytes()
                        handle.write(payload)
                        written += len(payload)
                        _lifecycle_checkpoint("compact:batch")
                    cursor = offset + written
            finally:
                if gzip_out:
                    handle.close()
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def _compact_streaming(
    source: Path,
    old_files: Sequence[str],
    shards: int,
    gzip_shards: bool,
    generation: int,
    batch: int,
) -> tuple[list[str], list[int], list[list[float] | None], list[Path]]:
    """The bounded-memory compaction body: scan, merge tables, stream."""
    sources: list[_CompactSource] = []
    snap_base = row_base = 0
    last_time = float("-inf")
    for name in old_files:
        try:
            src = _CompactSource(source / name, snap_base, row_base)
        except FileNotFoundError as exc:
            raise TraceFormatError(
                f"{source}: manifest names missing shard file {name!r}"
            ) from exc
        if src.snapshot_count:
            if src.first_time <= last_time:
                raise TraceFormatError(
                    f"{source}: shard file {name!r} is not strictly after "
                    "its predecessors; the directory is not a time-ordered "
                    "shard dir"
                )
            last_time = src.last_time
        src.release()
        snap_base += src.snapshot_count
        row_base += src.row_count
        sources.append(src)
    total_snapshots = snap_base
    metadata = sources[0].metadata
    # Replicate concat_stores' table merge exactly: when every
    # non-empty file already carries the first file's table the ids
    # pass through; otherwise each file's names are interned, in file
    # order, into one merged table and its id column is remapped.
    non_empty = [s for s in sources if s.snapshot_count]
    file0_names = sources[0].names
    if not non_empty or all(s.names == file0_names for s in non_empty):
        target_names = list(file0_names)
    else:
        merged = UserInterner()
        for src in non_empty:
            mapping = np.fromiter(
                (merged.intern(name) for name in src.names),
                dtype=np.int64,
                count=len(src.names),
            )
            if not np.array_equal(mapping, np.arange(len(mapping))):
                src.mapping = mapping
        target_names = merged.names
    edges = shard_edges(total_snapshots, shards)
    suffix = ".rtrc.gz" if gzip_shards else ".rtrc"
    names: list[str] = []
    counts: list[int] = []
    ranges: list[list[float] | None] = []
    paths: list[Path] = []
    for index, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        lo, hi = int(lo), int(hi)
        name = f"shard-{index:05d}.g{generation}{suffix}"
        row0 = _global_rows(sources, lo)
        row1 = _global_rows(sources, hi)
        paths.append(
            _write_streamed_shard(
                source / name,
                sources,
                lo,
                hi,
                row0,
                row1 - row0,
                target_names,
                metadata,
                batch,
                gzip_shards,
            )
        )
        _lifecycle_checkpoint("compact:shard-published")
        names.append(name)
        counts.append(hi - lo)
        ranges.append(
            [_time_at(sources, lo), _time_at(sources, hi - 1)] if hi > lo else None
        )
    return names, counts, ranges, paths


def compact_shard_dir(
    directory: str | Path,
    shards: int = 1,
    gzip_shards: bool = False,
    *,
    batch_snapshots: int | None = DEFAULT_COMPACT_BATCH_SNAPSHOTS,
) -> list[Path]:
    """Fold a shard directory into ``shards`` balanced shard files.

    A long-running :class:`RtrcDirAppender` crawl leaves one small
    file per round; compaction rewrites the directory as an even
    ``shards``-way split (the same partition :func:`to_rtrc_dir`
    produces) while keeping the loaded data **bit-for-bit** identical:
    ``concat_shards(read_rtrc_dir(d))`` returns the same columns and
    the same user table before and after (pinned by
    ``tests/unit/trace/test_compaction.py``).

    The rewrite **streams**: input shard files are copied
    shard-to-shard through fixed-size snapshot batches
    (``batch_snapshots`` at a time), so peak memory is bounded by the
    batch — not the store — and the directory you most need to compact
    is exactly the one this can still handle.  The streamed output is
    byte-for-byte what the old materializing path wrote (for ``.gz``
    outputs the gzip container differs only in its embedded mtime).
    Pass ``batch_snapshots=None`` to force the materializing rewrite —
    it concatenates the whole store in RAM and survives as the test
    oracle the streaming path is pinned against.

    The rewrite is crash-consistent: compacted files are written under
    *generation-tagged* names (``shard-00000.g<N>.rtrc``) that no
    previous manifest references, the manifest is then atomically
    swapped to the new file list — the commit point — and only
    afterwards are the old files unlinked.  A crash before the swap
    leaves the directory exactly as it was (plus orphans the next
    appender cleans up); a crash after it leaves a fully valid
    compacted directory plus unlinked-later debris.  Concurrent
    *readers* holding memmaps keep their consistent view (unlink only
    removes the name), and live followers re-open via the typed
    :class:`~repro.trace.StoreChangedError`.  An external compaction
    under a live appender is still refused by the *appender* (its next
    commit raises ``StoreChangedError``); the appender's own
    between-commit compaction (:class:`CompactionPolicy`) re-adopts
    the new manifest instead.

    Returns the new shard file paths, in time order.
    """
    source = Path(directory)
    manifest = read_shard_manifest(source)
    old_files = list_rtrc_dir(source)
    if not old_files:
        raise TraceFormatError(f"{source}: no shard files found")
    generation = (int(manifest.get("generation", 0)) if manifest else 0) + 1
    suffix = ".rtrc.gz" if gzip_shards else ".rtrc"
    if batch_snapshots is None:
        trace = concat_shards(read_rtrc_dir(source, mmap=True))
        parts = split_time_shards(trace, shards)
        names = [
            f"shard-{index:05d}.g{generation}{suffix}"
            for index in range(len(parts))
        ]
        paths = [
            write_trace_rtrc(part, source / name)
            for part, name in zip(parts, names)
        ]
        counts = [len(p) for p in parts]
        ranges: list[list[float] | None] = [
            [p.start_time, p.end_time] if len(p) else None for p in parts
        ]
    else:
        if batch_snapshots < 1:
            raise ValueError(
                f"batch_snapshots must be >= 1, got {batch_snapshots}"
            )
        names, counts, ranges, paths = _compact_streaming(
            source, old_files, shards, gzip_shards, generation, int(batch_snapshots)
        )
    _lifecycle_checkpoint("compact:pre-commit")
    write_shard_manifest(source, names, counts, ranges, generation)
    _lifecycle_checkpoint("compact:committed")
    survivors = set(names)
    for name in old_files:
        if name not in survivors:
            try:
                (source / name).unlink()
            except FileNotFoundError:
                pass
    _lifecycle_checkpoint("compact:cleaned")
    return paths


# -- slack, tiering, retention ------------------------------------------------


def shard_dir_slack(directory: str | Path) -> float:
    """Fraction of the directory's on-disk bytes that are not payload.

    Payload is the four column sections (times, snapshot offsets, ids,
    coordinates); everything else — per-file preambles, JSON headers
    with their repeated cumulative user tables, alignment padding — is
    overhead that compaction reclaims.  A directory of many small
    round files approaches 1.0; a freshly compacted single shard sits
    near 0.0.  Gzipped files count their *compressed* size, so tiering
    also lowers slack.  Reads only the headers (cheap even for ``.gz``
    files: decompression stops after the header blocks).
    """
    source = Path(directory)
    payload = 0
    disk = 0
    for name in list_rtrc_dir(source):
        path = source / name
        header = read_rtrc_header(path)
        for section in header["sections"].values():
            payload += int(section["nbytes"])
        disk += path.stat().st_size
    if disk <= 0:
        return 0.0
    return max(0.0, 1.0 - payload / disk)


@dataclass(frozen=True)
class CompactionPolicy:
    """When and how :class:`RtrcDirAppender` folds its own directory.

    A policy makes the lifecycle self-driving: after every committed
    round the appender checks the thresholds and runs the due passes —
    retention first (no point compacting data about to be dropped),
    then the streaming compaction, then tiering — re-adopting the
    swapped manifest after each, so its own next commit does not trip
    :class:`~repro.trace.StoreChangedError`.  External followers
    (``slmob serve``, ``analyze --follow``) see the usual generation
    bump and re-open.

    Parameters
    ----------
    max_round_files:
        Compact when the directory holds more than this many committed
        files.  The workhorse threshold for long crawls: bounds both
        per-open file handles and manifest size.
    max_slack_fraction:
        Compact when :func:`shard_dir_slack` exceeds this fraction —
        a size-based trigger for workloads whose rounds are so small
        the header overhead dominates.
    target_shards:
        How many balanced shard files a triggered compaction leaves.
    batch_snapshots:
        Batch size handed to the streaming compactor; bounds the
        compaction's peak memory.
    tier_after:
        Age threshold (trace-time seconds before the newest committed
        snapshot) past which cold shard files are gzipped in place.
        Note a compaction rewrites tiered files back into plain hot
        shards, so tiering pairs best with ``target_shards > 1`` or
        file-count thresholds loose enough to leave cold files alone.
    retain_for:
        Retention horizon: shard files whose *entire* time range is
        older than this (again relative to the newest committed
        snapshot) are dropped, oldest-first, manifest swap first.

    At least one of the four thresholds must be set — a policy that
    can never fire is a configuration error, not a no-op.
    """

    max_round_files: int | None = None
    max_slack_fraction: float | None = None
    target_shards: int = 1
    batch_snapshots: int = DEFAULT_COMPACT_BATCH_SNAPSHOTS
    tier_after: float | None = None
    retain_for: float | None = None

    def __post_init__(self) -> None:
        if (
            self.max_round_files is None
            and self.max_slack_fraction is None
            and self.tier_after is None
            and self.retain_for is None
        ):
            raise ValueError(
                "CompactionPolicy needs at least one threshold: "
                "max_round_files, max_slack_fraction, tier_after or "
                "retain_for"
            )
        if self.max_round_files is not None and self.max_round_files < 1:
            raise ValueError(
                f"max_round_files must be >= 1, got {self.max_round_files}"
            )
        if self.max_slack_fraction is not None and not (
            0.0 <= self.max_slack_fraction < 1.0
        ):
            raise ValueError(
                "max_slack_fraction must be in [0, 1), got "
                f"{self.max_slack_fraction}"
            )
        if self.target_shards < 1:
            raise ValueError(f"target_shards must be >= 1, got {self.target_shards}")
        if self.batch_snapshots < 1:
            raise ValueError(
                f"batch_snapshots must be >= 1, got {self.batch_snapshots}"
            )
        if self.tier_after is not None and self.tier_after < 0:
            raise ValueError(f"tier_after must be >= 0, got {self.tier_after}")
        if self.retain_for is not None and self.retain_for < 0:
            raise ValueError(f"retain_for must be >= 0, got {self.retain_for}")

    def compaction_due(self, file_count: int, slack: float) -> bool:
        """Whether the compaction thresholds say the directory is due."""
        if self.max_round_files is not None and file_count > self.max_round_files:
            return True
        if self.max_slack_fraction is not None and slack > self.max_slack_fraction:
            return True
        return False


def _shard_index(name: str) -> int:
    """The numeric index in a ``shard-NNNNN[.gK][.rtrc[.gz]]`` name (-1 odd)."""
    stem = name.split(".", 1)[0]
    try:
        return int(stem.split("-", 1)[1])
    except (IndexError, ValueError):
        return -1


def _dir_state(
    source: Path,
) -> tuple[list[str], list[int], list[list[float] | None], int]:
    """``(files, snapshot_counts, time_ranges, generation)`` of a shard dir.

    Served from the manifest when it is present and consistent with
    the directory listing; rebuilt from the file headers otherwise
    (foreign directories written without a manifest).
    """
    manifest = read_shard_manifest(source)
    files = list_rtrc_dir(source)
    if not files:
        raise TraceFormatError(f"{source}: no shard files found")
    generation = int(manifest.get("generation", 0)) if manifest else 0
    counts = manifest.get("snapshot_counts") if manifest else None
    ranges = manifest.get("time_ranges") if manifest else None
    if (
        manifest is not None
        and [str(name) for name in manifest["files"]] == files
        and isinstance(counts, list)
        and isinstance(ranges, list)
        and len(counts) == len(files)
        and len(ranges) == len(files)
    ):
        return (
            files,
            [int(c) for c in counts],
            [[float(r[0]), float(r[1])] if r else None for r in ranges],
            generation,
        )
    rebuilt_counts: list[int] = []
    rebuilt_ranges: list[list[float] | None] = []
    for name in files:
        store, _ = read_store_rtrc(source / name, mmap=not _is_gzip(source / name))
        count = store.snapshot_count
        rebuilt_counts.append(count)
        rebuilt_ranges.append(
            [float(store.times[0]), float(store.times[-1])] if count else None
        )
    return files, rebuilt_counts, rebuilt_ranges, generation


def _gzip_file(src: Path, dst: Path) -> Path:
    """Gzip ``src`` into ``dst`` through a temp file, 1 MiB at a time."""
    fd, tmp_name = _tempfile_for(dst)
    try:
        with (
            os.fdopen(fd, "wb") as raw,
            gzip.open(raw, "wb") as out,
            open(src, "rb") as reader,
        ):
            shutil.copyfileobj(reader, out, 1 << 20)
        os.replace(tmp_name, dst)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return dst


def tier_shard_dir(directory: str | Path, older_than: float) -> list[Path]:
    """Gzip cold shard files in place; the manifest swap is the commit.

    A shard file is *cold* when its entire time range ended more than
    ``older_than`` trace-time seconds before the directory's newest
    committed snapshot.  Each cold plain file is rewritten as
    ``<name>.gz`` next to it (streamed, 1 MiB at a time — never
    decoded), then one manifest swap publishes all the new names with
    a generation bump (readers re-open via
    :class:`~repro.trace.StoreChangedError`, caches keyed on
    :func:`shard_dir_generation` drop), and only then are the plain
    originals unlinked.  Loading the directory yields bit-identical
    columns before and after — readers already inflate ``.gz`` shards
    transparently; they just stop memmapping them.

    The newest non-empty file is never tiered (its range ends exactly
    at the newest snapshot), so a live appender keeps appending plain
    hot files.  Empty round files are left alone.  Returns the new
    ``.gz`` paths (empty list when nothing was cold).
    """
    if older_than < 0:
        raise ValueError(f"older_than must be >= 0, got {older_than}")
    source = Path(directory)
    files, counts, ranges, generation = _dir_state(source)
    newest = max((r[1] for r in ranges if r), default=None)
    if newest is None:
        return []
    cutoff = newest - older_than
    new_names = list(files)
    tiered: list[str] = []
    for index, (name, rng) in enumerate(zip(files, ranges)):
        if rng is None or rng[1] >= cutoff or _is_gzip(source / name):
            continue
        gz_name = name + ".gz"
        _gzip_file(source / name, source / gz_name)
        _lifecycle_checkpoint("tier:file-published")
        new_names[index] = gz_name
        tiered.append(gz_name)
    if not tiered:
        return []
    _lifecycle_checkpoint("tier:pre-commit")
    write_shard_manifest(source, new_names, counts, ranges, generation + 1)
    _lifecycle_checkpoint("tier:committed")
    for old, new in zip(files, new_names):
        if old != new:
            try:
                (source / old).unlink()
            except FileNotFoundError:
                pass
    _lifecycle_checkpoint("tier:cleaned")
    return [source / name for name in tiered]


def retain_shard_dir(directory: str | Path, older_than: float) -> list[str]:
    """Drop shard files wholly older than the retention horizon.

    Retention removes the longest *prefix* of the file list in which
    every file's time range ended more than ``older_than`` trace-time
    seconds before the directory's newest committed snapshot (empty
    round files inside that prefix go with it).  Prefix-only pruning
    keeps the survivors a valid time-ordered shard dir, and because
    every committed file carries the cumulative user table of its
    predecessors, the surviving files stay self-describing — interned
    ids remain comparable across the cut.

    The manifest swap (with a generation bump) is the commit point;
    files are unlinked only afterwards, so an in-flight query that
    loaded the old manifest keeps its memmaps (POSIX unlink removes
    the name, not the inode) and the *next* query sees the pruned
    directory or a :class:`~repro.trace.StoreChangedError` re-open,
    never a torn mix.  The newest non-empty file always survives.
    Returns the dropped file names, oldest first.
    """
    if older_than < 0:
        raise ValueError(f"older_than must be >= 0, got {older_than}")
    source = Path(directory)
    files, counts, ranges, generation = _dir_state(source)
    newest = max((r[1] for r in ranges if r), default=None)
    if newest is None:
        return []
    cutoff = newest - older_than
    drop = 0
    for rng in ranges:
        if rng is not None and rng[1] >= cutoff:
            break
        drop += 1
    if not drop:
        return []
    dropped = files[:drop]
    _lifecycle_checkpoint("retain:pre-commit")
    write_shard_manifest(
        source, files[drop:], counts[drop:], ranges[drop:], generation + 1
    )
    _lifecycle_checkpoint("retain:committed")
    for name in dropped:
        try:
            (source / name).unlink()
        except FileNotFoundError:
            pass
    _lifecycle_checkpoint("retain:cleaned")
    return dropped
