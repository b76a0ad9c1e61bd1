"""Trace serialization: CSV (flat records) and JSONL (one snapshot per line).

CSV is the interchange format — the same five columns
(``time,user,x,y,z``) a real crawler database dump would have, with
metadata carried in ``#``-prefixed header comments.  JSONL keeps the
snapshot structure explicit, which is convenient for streaming
consumers.  Both formats transparently support gzip via a ``.gz``
suffix.

The binary columnar format lives in :mod:`repro.trace.storage`
(``.rtrc``, memory-mapped); :func:`read_trace` / :func:`write_trace`
dispatch on the file suffix across all three formats, and
:func:`read_trace` also loads a shard directory whole.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.trace.columnar import ColumnarBuilder, ColumnarStore, store_from_records
from repro.trace.sharding import concat_shards, read_rtrc_dir
from repro.trace.storage import read_trace_rtrc, write_trace_rtrc
from repro.trace.trace import Trace, TraceMetadata

_METADATA_FIELDS = ("land_name", "width", "height", "tau", "source", "notes")


def _open_text(path: Path, mode: str) -> TextIO:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
    return open(path, mode, encoding="utf-8", newline="")


def _metadata_header(metadata: TraceMetadata) -> list[str]:
    payload = {name: getattr(metadata, name) for name in _METADATA_FIELDS}
    return [f"# repro-trace-metadata: {json.dumps(payload)}"]


def _parse_metadata(line: str) -> TraceMetadata | None:
    prefix = "# repro-trace-metadata:"
    if not line.startswith(prefix):
        return None
    payload = json.loads(line[len(prefix):])
    return TraceMetadata(**payload)


_EMPTY_SNAPSHOTS_PREFIX = "# repro-trace-empty-snapshots:"


def _empty_snapshots_header(trace: Trace) -> list[str]:
    """Comment line preserving zero-user snapshots in flat-record CSV.

    "The monitor looked and the land was empty" is data; without this
    line a CSV round trip would silently drop those timestamps (and
    inflate mean concurrency on re-load).  Times are quantized through
    the same ``%.3f`` the data rows use, so empty and occupied
    snapshots can never collide or reorder on re-load.
    """
    cols = trace.columns
    empty = cols.times[cols.counts() == 0]
    if not len(empty):
        return []
    quantized = [float(f"{t:.3f}") for t in empty.tolist()]
    return [f"{_EMPTY_SNAPSHOTS_PREFIX} {json.dumps(quantized)}"]


def _parse_empty_snapshots(line: str) -> list[float] | None:
    if not line.startswith(_EMPTY_SNAPSHOTS_PREFIX):
        return None
    return [float(t) for t in json.loads(line[len(_EMPTY_SNAPSHOTS_PREFIX):])]


def write_trace_csv(trace: Trace, path: str | Path) -> Path:
    """Write a trace as flat CSV records; returns the path written.

    Formatting is batched per column (one tight comprehension over each
    unboxed column, then a single C-level ``writer.writerows`` over the
    zipped columns) instead of boxing every observation through
    per-row numpy indexing — ~1.5x the rows/s of the row loop.
    """
    target = Path(path)
    with _open_text(target, "w") as handle:
        for header_line in _metadata_header(trace.metadata):
            handle.write(header_line + "\n")
        for header_line in _empty_snapshots_header(trace):
            handle.write(header_line + "\n")
        writer = csv.writer(handle)
        writer.writerow(["time", "user", "x", "y", "z"])
        cols = trace.columns
        if cols.observation_count:
            names = cols.users.names
            times_col = [f"{v:.3f}" for v in cols.row_times().tolist()]
            names_col = [names[i] for i in cols.user_ids.tolist()]
            x_col = [f"{v:.3f}" for v in cols.xyz[:, 0].tolist()]
            y_col = [f"{v:.3f}" for v in cols.xyz[:, 1].tolist()]
            z_col = [f"{v:.3f}" for v in cols.xyz[:, 2].tolist()]
            writer.writerows(zip(times_col, names_col, x_col, y_col, z_col))
    return target


def read_trace_csv(path: str | Path) -> Trace:
    """Read a trace written by :func:`write_trace_csv`.

    Files without the metadata comment still load (with default
    metadata), so externally produced record dumps can be ingested.
    """
    source = Path(path)
    metadata: TraceMetadata | None = None
    empty_times: list[float] = []
    times: list[float] = []
    names: list[str] = []
    coords: list[tuple[float, float, float]] = []
    with _open_text(source, "r") as handle:
        header_seen = False
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                parsed = _parse_metadata(line)
                if parsed is not None:
                    metadata = parsed
                empties = _parse_empty_snapshots(line)
                if empties is not None:
                    empty_times.extend(empties)
                continue
            if not header_seen:
                header_seen = True
                expected = ["time", "user", "x", "y", "z"]
                columns = [c.strip() for c in line.split(",")]
                if columns != expected:
                    raise ValueError(
                        f"unexpected CSV header {columns!r}; expected {expected!r}"
                    )
                continue
            row = next(csv.reader([line]))
            if len(row) != 5:
                raise ValueError(f"malformed CSV row: {line!r}")
            times.append(float(row[0]))
            names.append(row[1])
            coords.append((float(row[2]), float(row[3]), float(row[4])))
    store = store_from_records(
        np.asarray(times, dtype=np.float64),
        names,
        np.asarray(coords, dtype=np.float64).reshape(len(times), 3),
    )
    if empty_times:
        store = _with_empty_snapshots(store, empty_times)
    return Trace.from_columns(store, metadata)


def _with_empty_snapshots(store, empty_times: list[float]):
    """Splice zero-row snapshots into a store built from flat records.

    Empty snapshots own no observation rows, so only ``times`` and the
    CSR offsets change; the id and coordinate columns pass through.
    """
    extra = np.asarray(empty_times, dtype=np.float64)
    times = np.concatenate([store.times, extra])
    counts = np.concatenate(
        [np.diff(store.snapshot_offsets), np.zeros(len(extra), dtype=np.int64)]
    )
    order = np.argsort(times, kind="stable")
    offsets = np.zeros(len(times) + 1, dtype=np.int64)
    np.cumsum(counts[order], out=offsets[1:])
    return ColumnarStore(
        times[order], offsets, store.user_ids, store.xyz, store.users
    )


def write_trace_jsonl(trace: Trace, path: str | Path) -> Path:
    """Write a trace as JSONL: a metadata line then one snapshot per line."""
    target = Path(path)
    with _open_text(target, "w") as handle:
        meta = {name: getattr(trace.metadata, name) for name in _METADATA_FIELDS}
        handle.write(json.dumps({"metadata": meta}) + "\n")
        cols = trace.columns
        names = cols.users.names
        for index in range(cols.snapshot_count):
            user_ids, xyz = cols.slice_of(index)
            payload = {
                "t": float(cols.times[index]),
                "users": {
                    names[uid]: [float(x), float(y), float(z)]
                    for uid, (x, y, z) in zip(user_ids, xyz)
                },
            }
            handle.write(json.dumps(payload) + "\n")
    return target


def read_trace_jsonl(path: str | Path) -> Trace:
    """Read a trace written by :func:`write_trace_jsonl`."""
    source = Path(path)
    metadata: TraceMetadata | None = None
    builder = ColumnarBuilder()
    with _open_text(source, "r") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if "metadata" in payload:
                metadata = TraceMetadata(**payload["metadata"])
                continue
            users = payload["users"]
            block = np.zeros((len(users), 3), dtype=np.float64)
            for i, coords in enumerate(users.values()):
                block[i, : len(coords)] = coords[:3]
            builder.append_snapshot(payload["t"], list(users), block)
    return Trace.from_columns(builder.build(), metadata)


def trace_format(path: str | Path) -> str:
    """Serialization format implied by a path: ``rtrc``, ``jsonl`` or ``csv``.

    A trailing ``.gz`` is transparent for every format; anything that
    is neither ``.rtrc`` nor ``.jsonl`` is treated as CSV, matching the
    historical default.
    """
    name = Path(path).name
    if ".rtrc" in name:
        return "rtrc"
    if ".jsonl" in name:
        return "jsonl"
    return "csv"


def read_trace(path: str | Path) -> Trace:
    """Read a trace in any supported format, dispatching on the suffix.

    A directory is a shard directory (a crawl's committed rounds, or
    :func:`~repro.trace.to_rtrc_dir` output) and loads as the
    concatenation of its shard files in manifest order.  Otherwise
    the format rules of :func:`trace_format` apply: ``.rtrc[.gz]`` is
    the binary columnar format (memory-mapped when not gzipped —
    loading costs a header parse and the data pages fault in lazily),
    ``.jsonl[.gz]`` is one snapshot per line, and anything else is
    flat-record CSV.  Only ``.rtrc`` avoids re-parsing every
    observation on every load; convert once (``slmob convert``) when
    a trace will be analyzed more than once.

    All formats return an equivalent :class:`~repro.trace.Trace`
    (pinned bit-for-bit by ``tests/property/test_io_roundtrip.py``),
    with one caveat: CSV quantizes coordinates and times through the
    ``%.3f`` text format.
    """
    if Path(path).is_dir():
        return concat_shards(read_rtrc_dir(path))
    fmt = trace_format(path)
    if fmt == "rtrc":
        return read_trace_rtrc(path)
    if fmt == "jsonl":
        return read_trace_jsonl(path)
    return read_trace_csv(path)


def write_trace(trace: Trace, path: str | Path) -> Path:
    """Write a trace in the format implied by the suffix; returns the path.

    Dispatches like :func:`read_trace`.  ``.rtrc`` writes go through
    a temp file plus atomic rename, so overwriting a store that other
    processes are memmapping is safe (they keep their old view); the
    text writers stream in place.  A trailing ``.gz`` gzips any
    format (a gzipped ``.rtrc`` loads in memory instead of
    memmapping).  To *grow* a trace on disk round by round instead
    of rewriting it, use :class:`~repro.trace.RtrcDirAppender`.
    """
    fmt = trace_format(path)
    if fmt == "rtrc":
        return write_trace_rtrc(trace, path)
    if fmt == "jsonl":
        return write_trace_jsonl(trace, path)
    return write_trace_csv(trace, path)
