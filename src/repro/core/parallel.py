"""Shard task execution: one task vocabulary for every backend.

The sharded and windowed analyzers fan per-shard extraction over
workers.  A *task* is a plain ``(kind, params)`` pair — picklable, so
the same task runs on an in-memory shard (thread backend, serial
windowed loop) or inside a spawned worker process that memmap-loads
its shard from a per-shard ``.rtrc`` file (process backend).  The
shard file *is* the input channel: the parent ships a path plus a tiny
task tuple, the worker pages in only what the extraction touches.

Results travel as **compact array payloads** instead of object lists:
the extractors themselves now produce columnar results — contact
intervals as a five-array :class:`~repro.core.kernels.ContactSet`,
sessions as a CSR-backed :class:`~repro.trace.SessionSet` — and the
per-snapshot metrics (zone occupation, degrees, diameters, clustering)
are already arrays.  The codec is therefore *thin*: encoding a shard's
result is handing over the set's existing arrays (no per-object
interner lookups), decoding is rebuilding the set around the parent's
name table (no object construction — ``ContactInterval`` /
``UserSession`` views stay lazy).  Interner ids are stable across
every view of a measurement, so worker-side ids decode directly
against the parent's table.

Every backend runs the *same* :func:`extract_shard_task` body; the
codec (:func:`encode_payload` / :func:`decode_payload`) wraps it only
where a pickle boundary actually exists — the process backend's
:func:`run_shard_file_task`, and the network backend's HTTP result
channel (:mod:`repro.distributed`), which ships the identical
part-file-plus-task-tuple shape to workers in *other processes on
other machines*.  In-process execution (thread backend, serial
windowed loop) passes the extractor's sets straight through, paying
nothing.  The equivalence suite
(``tests/unit/core/test_parallel_backends.py``,
``tests/unit/distributed/``) pins every path against the unsharded
oracle.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core import losgraph, spatial
from repro.core.contacts import (
    extract_contact_set,
    extract_contact_sets_multirange,
)
from repro.core.kernels import ContactSet
from repro.trace import (
    SessionSet,
    Trace,
    extract_session_set,
    read_trace_rtrc,
    write_trace_rtrc,
)

#: Execution backends understood by :class:`PartScheduler`.
SCHEDULER_BACKENDS = ("serial", "thread", "process", "network")

#: Seconds :meth:`PartScheduler.discard_pool` waits for a dropped
#: pool's manager thread after killing its workers.
_MANAGER_JOIN_TIMEOUT_S = 10.0

#: Task kinds understood by :func:`run_shard_task`.
TASK_KINDS = (
    "contacts",
    "contacts_multirange",
    "sessions",
    "zone_occupation",
    "degrees",
    "diameters",
    "clustering",
)

#: Payload of one shard's contact extraction: ``(ids_a, ids_b, starts,
#: ends, censored)`` flat arrays, one row per interval, in the exact
#: order the serial extractor emits.
ContactPayload = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Payload of one shard's session extraction: ``(user_ids, offsets,
#: times, xyz)`` — CSR layout, session ``i`` owns rows
#: ``offsets[i]:offsets[i + 1]``.
SessionPayload = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


# -- payload codecs --------------------------------------------------------


def encode_contacts(contacts: ContactSet) -> ContactPayload:
    """A contact set's five flat arrays — already the payload."""
    return contacts.arrays()


def decode_contacts(payload: ContactPayload, names: Sequence[str]) -> ContactSet:
    """Rebuild the set around the parent's name table (no boxing)."""
    return ContactSet(*payload, names)


def encode_sessions(sessions: SessionSet) -> SessionPayload:
    """A session set's CSR block — already the payload."""
    return sessions.arrays()


def decode_sessions(payload: SessionPayload, names: Sequence[str]) -> SessionSet:
    """Rebuild the set around the parent's name table (no boxing)."""
    return SessionSet(*payload, names)


def encode_payload(kind: str, result: object) -> object:
    """Compact-array form of one task result, for the pickle boundary."""
    if kind == "contacts":
        return encode_contacts(result)
    if kind == "contacts_multirange":
        return {r: encode_contacts(c) for r, c in result.items()}
    if kind == "sessions":
        return encode_sessions(result)
    return result


def decode_payload(kind: str, payload: object, names: Sequence[str]) -> object:
    """Inverse of :func:`encode_payload` — the extractor's columnar sets."""
    if kind == "contacts":
        return decode_contacts(payload, names)
    if kind == "contacts_multirange":
        return {r: decode_contacts(p, names) for r, p in payload.items()}
    if kind == "sessions":
        return decode_sessions(payload, names)
    return payload


# -- the task runner -------------------------------------------------------


def phased_selection(trace: Trace, every: int, phase: int) -> Trace | None:
    """The shard's slice of a globally strided snapshot selection.

    ``phase`` is the first local snapshot the global ``range(0, S,
    every)`` stride lands on inside this shard; ``None`` means the
    stride skips the shard entirely.
    """
    if every == 1:
        return trace if len(trace) else None
    kept = np.arange(phase, len(trace), every)
    if not len(kept):
        return None
    return Trace.from_columns(trace.columns.select(kept), trace.metadata)


def extract_shard_task(trace: Trace, kind: str, params: tuple) -> object:
    """Run one analysis task on one shard; returns the raw result.

    This is the single worker body every backend executes — columnar
    :class:`~repro.core.kernels.ContactSet` /
    :class:`~repro.trace.SessionSet` results for the interval tasks,
    sample arrays for the rest.  Strided tasks carry their shard's
    phase in ``params`` so the union of the per-shard selections
    reproduces the global stride exactly; ``contacts_multirange``
    carries ``(radii, radius_workers)`` so a part can fan its radius
    sweep across threads internally.
    """
    if kind == "contacts":
        (r,) = params
        return extract_contact_set(trace, r)
    if kind == "contacts_multirange":
        radii, radius_workers = params
        return extract_contact_sets_multirange(trace, radii, radius_workers)
    if kind == "sessions":
        (gap_threshold,) = params
        return extract_session_set(trace, gap_threshold)
    if kind == "zone_occupation":
        cell_size, every, phase = params
        sub = phased_selection(trace, every, phase)
        if sub is None:
            return np.empty(0, dtype=np.int64)
        return spatial.zone_occupation(sub, cell_size, 1)
    if kind == "degrees":
        r, every, phase = params
        sub = phased_selection(trace, every, phase)
        if sub is None:
            return np.empty(0, dtype=np.int64)
        return np.asarray(losgraph.degree_samples(sub, r, 1), dtype=np.int64)
    if kind == "diameters":
        r, every, phase = params
        sub = phased_selection(trace, every, phase)
        if sub is None:
            return np.empty(0, dtype=np.int64)
        return np.asarray(losgraph.diameter_series(sub, r, 1), dtype=np.int64)
    if kind == "clustering":
        r, every, phase = params
        sub = phased_selection(trace, every, phase)
        if sub is None:
            return np.empty(0, dtype=np.float64)
        return np.asarray(losgraph.clustering_series(sub, r, 1), dtype=np.float64)
    raise ValueError(f"unknown shard task {kind!r}")


# -- the process backend ---------------------------------------------------


def run_shard_task(trace: Trace, kind: str, params: tuple) -> object:
    """The shared task body plus the payload encoding, in the worker."""
    result = extract_shard_task(trace, kind, params)
    return encode_payload(kind, result)


def run_shard_file_task(path: str, kind: str, params: tuple) -> object:
    """Worker entry point of the process backend.

    Runs inside a spawned worker: memmap-load the shard's ``.rtrc``
    file (zero parse, lazy paging — only the pages the task touches
    fault in), execute the shared task body, and encode the result for
    the trip back through the pipe.  Module-level so it pickles under
    the ``spawn`` start method.
    """
    return run_shard_task(read_trace_rtrc(Path(path), mmap=True), kind, params)


def process_pool(max_workers: int) -> ProcessPoolExecutor:
    """A ``spawn``-based process pool.

    ``spawn`` (not ``fork``) so workers start from a clean interpreter
    on every platform: nothing of the parent's heap — in particular
    its memmapped stores — leaks into the children, which is exactly
    the out-of-core contract the per-shard files exist for.
    """
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=multiprocessing.get_context("spawn"),
    )


# -- the part scheduler ----------------------------------------------------


class PartAnalysisError(RuntimeError):
    """A part task failed; the message names the failing part.

    :class:`~repro.core.sharded.ShardAnalysisError` specializes it for
    shard parts, so existing callers keep catching what they caught.
    """


class PartScheduler:
    """Run one ``(kind, part, params)`` task set on a chosen backend.

    This is the execution engine every time-partitioned analyzer
    (:class:`~repro.core.sharded.ShardedAnalyzer`,
    :class:`~repro.core.windowed.WindowedAnalyzer`,
    :class:`~repro.core.live.LiveAnalyzer`) fans its per-part
    extractions through.  The analyzers decide *what* the parts are
    (shards, windows, append rounds) and how to merge; the scheduler
    owns *where* tasks run and every resource that entails:

    * ``backend="serial"`` — tasks run inline, strictly one part at a
      time, ``part_trace`` called per task so at most one part's pages
      are live (the windowed analyzer's out-of-core contract).
    * ``backend="thread"`` — a per-run ``ThreadPoolExecutor`` over the
      in-memory part views.  Cheap to start; the run-length extraction
      kernels are numpy-bound and release the GIL, so parts overlap.
    * ``backend="process"`` — a persistent ``spawn``-based
      ``ProcessPoolExecutor`` whose workers memmap-load one ``.rtrc``
      file per part (:func:`run_shard_file_task`).  Parts that already
      live on disk (shard directories, append-round files) are handed
      to workers as-is; parts that only exist as in-memory views are
      materialized lazily into a private temp directory, once per part
      index.
    * ``backend="network"`` — a persistent
      :class:`~repro.distributed.NetworkExecutor` serving the same
      part files over a loopback (or LAN) HTTP coordinator to
      ``slmob worker`` processes, which may live on other machines.
      Tasks are leased with a deadline: a slow or dead worker's task
      is re-dispatched, and results merge first-write-wins, so the
      analysis is bit-for-bit the serial result at any worker count.
      Tune with the ``network=`` :class:`~repro.distributed.NetworkOptions`.

    Part indices must be stable and parts immutable: the scheduler
    caches materialized part files by index, so index ``i`` must
    always denote the same snapshots (true for shards, windows, and
    append-only growth parts).

    Lifecycle: :meth:`close` shuts the worker pool down and deletes
    the materialized part files.  A pool broken by a worker death is
    discarded on detection so the next run respawns a fresh one.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: int | None = None,
        *,
        file_prefix: str = "part",
        error_cls: type[PartAnalysisError] = PartAnalysisError,
        network: object | None = None,
    ) -> None:
        if backend not in SCHEDULER_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {SCHEDULER_BACKENDS}"
            )
        self.backend = backend
        self._max_workers = max_workers
        self._file_prefix = file_prefix
        self._error_cls = error_cls
        self._network_options = network
        self._netexec = None
        self._pool: ProcessPoolExecutor | None = None
        self._pool_size = 0
        self._pool_finalizer: weakref.finalize | None = None
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._part_files: dict[int, Path] = {}
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down and delete materialized part files."""
        self._closed = True
        if self._netexec is not None:
            self._netexec.close()
            self._netexec = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        self._part_files.clear()

    def __enter__(self) -> "PartScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def pool(self) -> ProcessPoolExecutor | None:
        """The live process pool, if one has been spawned."""
        return self._pool

    @property
    def materialized_paths(self) -> list[Path]:
        """Part files this scheduler wrote (not externally provided ones)."""
        return [self._part_files[i] for i in sorted(self._part_files)]

    # -- execution ---------------------------------------------------------

    def run(
        self,
        kind: str,
        tasks: Sequence[tuple[int, tuple]],
        *,
        part_trace: Callable[[int], Trace],
        part_path: Callable[[int], Path | None] | None = None,
        names: Sequence[str] | Callable[[], Sequence[str]] | None = None,
        wrap_error: Callable[[int, str, Exception], Exception] | None = None,
    ) -> list[object]:
        """Run ``tasks`` (``(part_index, params)`` pairs), in task order.

        ``part_trace(i)`` yields part ``i`` as an in-memory (usually
        zero-copy) trace view; ``part_path(i)`` may name an ``.rtrc``
        file already holding exactly that part, which the process
        backend then memmap-loads directly instead of materializing a
        copy.  ``names`` is the interner's name table (or a callable
        producing it) used to decode process-backend payloads back
        into extractor objects.  ``wrap_error(i, kind, exc)`` builds
        the exception re-raised when part ``i``'s task fails (the
        original rides along as ``__cause__``).

        A single-task run executes inline on every backend — there is
        no parallelism to buy, so no spawn or shard-file overhead is
        paid.
        """
        if self._closed:
            raise ValueError("part scheduler is closed")
        tasks = list(tasks)
        wrap = wrap_error or self._default_error
        if self.backend == "serial" or len(tasks) <= 1:
            return [
                self._run_inline(index, kind, params, part_trace, wrap)
                for index, params in tasks
            ]
        if self.backend == "thread":
            with ThreadPoolExecutor(max_workers=self._workers(len(tasks))) as pool:
                futures = [
                    pool.submit(extract_shard_task, part_trace(index), kind, params)
                    for index, params in tasks
                ]
                return [
                    self._collect(index, kind, future, wrap)
                    for (index, _), future in zip(tasks, futures)
                ]
        paths = [self._task_file(index, part_trace, part_path) for index, _ in tasks]
        if self.backend == "network":
            payloads = self._network_executor().run(
                kind, tasks, dict(zip((i for i, _ in tasks), paths)), wrap
            )
            return self._decode_all(kind, payloads, names)
        pool = self._process_pool(len(tasks))
        try:
            futures = [
                pool.submit(run_shard_file_task, str(path), kind, params)
                for path, (_, params) in zip(paths, tasks)
            ]
        except (BrokenProcessPool, OSError, ValueError) as exc:
            # OSError, ValueError ("bad value(s) in fds_to_keep"): a
            # worker spawned while the pool was breaking found the call
            # queue already closed.  Any other ValueError is not ours.
            if isinstance(exc, ValueError) and "fds_to_keep" not in str(exc):
                raise
            self.discard_pool()
            raise self._error_cls(
                f"{kind}: the worker pool broke before part tasks could "
                f"be submitted: {exc}"
            ) from exc
        payloads = [
            self._collect(index, kind, future, wrap)
            for (index, _), future in zip(tasks, futures)
        ]
        return self._decode_all(kind, payloads, names)

    def _decode_all(
        self,
        kind: str,
        payloads: Sequence[object],
        names: Sequence[str] | Callable[[], Sequence[str]] | None,
    ) -> list[object]:
        """Decode worker payloads against the parent's name table."""
        name_table = names() if callable(names) else names
        if name_table is None:
            raise ValueError(
                f"{self.backend} backend needs the interner's name table "
                "to decode worker payloads"
            )
        return [decode_payload(kind, payload, name_table) for payload in payloads]

    def _network_executor(self):
        """The persistent network coordinator, created on first use.

        Imported lazily: :mod:`repro.distributed` sits on top of this
        module, and serial/thread/process schedulers never pay for it.
        """
        if self._netexec is None:
            from repro.distributed import NetworkExecutor

            self._netexec = NetworkExecutor(
                self._network_options, default_workers=self._max_workers
            )
        return self._netexec

    def network_url(self) -> str:
        """The network coordinator's base URL (workers attach here).

        Starts the coordinator if it is not yet running; only valid on
        ``backend="network"`` schedulers.
        """
        if self.backend != "network":
            raise ValueError(
                f"scheduler backend is {self.backend!r}; only the network "
                "backend has a coordinator URL"
            )
        if self._closed:
            raise ValueError("part scheduler is closed")
        return self._network_executor().url

    def _process_pool(self, task_count: int) -> ProcessPoolExecutor:
        """The persistent spawn pool, created on first use.

        Spawning workers is much more expensive than a thread pool, so
        the pool is reused across runs; a ``weakref`` finalizer makes
        sure an abandoned scheduler does not leak worker processes
        until interpreter exit.  A pool sized for an earlier, smaller
        run is replaced when a bigger task set arrives (a live
        follower's first refresh may see two rounds, a later backfill
        forty — the backfill must not be pinned to two workers); it
        never shrinks.
        """
        size = self._workers(task_count)
        if self._pool is not None and self._pool_size < size:
            self.discard_pool()
        if self._pool is None:
            self._pool = process_pool(size)
            self._pool_size = size
            self._pool_finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=False
            )
        return self._pool

    def discard_pool(self) -> None:
        """Drop a broken pool so the next run spawns a fresh one.

        ``ProcessPoolExecutor`` marks itself permanently broken when a
        worker dies (OOM kill, segfault); keeping it around would make
        every later run fail on submit even though the part files and
        traces are intact.

        Every worker of the dropped pool is killed and reaped here.  A
        worker spawned by a submit that raced the breakage escapes the
        executor's own teardown: it blocks forever on the call-queue
        lock the dead worker held, and the executor's manager thread,
        which interpreter exit joins, waits on it forever.

        The manager thread may be reaping the same workers.  A
        ``join`` that loses that race returns before the exit status is
        stored, and ``is_alive`` then reports a reaped worker as
        running, so the manager thread is joined too (bounded: once
        the workers are dead it has nothing left to wait for).
        """
        pool = self._pool
        if pool is not None:
            workers = list((pool._processes or {}).values())
            manager = pool._executor_manager_thread
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in workers:
                worker.kill()
                worker.join()
            if manager is not None:
                manager.join(timeout=_MANAGER_JOIN_TIMEOUT_S)
            self._pool = None
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None

    # -- plumbing ----------------------------------------------------------

    def _workers(self, task_count: int) -> int:
        return self._max_workers or min(task_count, os.cpu_count() or 1)

    def _run_inline(
        self,
        index: int,
        kind: str,
        params: tuple,
        part_trace: Callable[[int], Trace],
        wrap: Callable[[int, str, Exception], Exception],
    ) -> object:
        try:
            return extract_shard_task(part_trace(index), kind, params)
        except Exception as exc:
            raise wrap(index, kind, exc) from exc

    def _collect(
        self,
        index: int,
        kind: str,
        future: Future,
        wrap: Callable[[int, str, Exception], Exception],
    ) -> object:
        try:
            return future.result()
        except Exception as exc:
            if isinstance(exc, BrokenProcessPool):
                self.discard_pool()
            raise wrap(index, kind, exc) from exc

    def _default_error(
        self, index: int, kind: str, exc: Exception
    ) -> PartAnalysisError:
        return self._error_cls(f"{kind} failed on part {index}: {exc}")

    def _task_file(
        self,
        index: int,
        part_trace: Callable[[int], Trace],
        part_path: Callable[[int], Path | None] | None,
    ) -> Path:
        """The ``.rtrc`` file a worker should memmap-load for part ``index``.

        An analyzer-provided on-disk part (shard dir, append round) is
        used as-is; otherwise the part is materialized once into the
        scheduler's temp directory and reused across runs.
        """
        if part_path is not None:
            existing = part_path(index)
            if existing is not None:
                return Path(existing)
        if index not in self._part_files:
            if self._tmpdir is None:
                self._tmpdir = tempfile.TemporaryDirectory(prefix="rtrc-parts-")
            target = Path(self._tmpdir.name) / f"{self._file_prefix}-{index:05d}.rtrc"
            self._part_files[index] = write_trace_rtrc(part_trace(index), target)
        return self._part_files[index]
