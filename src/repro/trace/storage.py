"""Binary on-disk columnar trace format (``.rtrc``) with memmap loading.

The CSV/JSONL formats re-parse every observation on every load, which
dominates repeated-analysis workloads (the paper's sweeps re-read the
same crawled traces many times).  ``.rtrc`` stores the four columnar
arrays of a :class:`~repro.trace.columnar.ColumnarStore` as raw
little-endian sections behind a JSON header, so loading is a handful
of ``np.memmap`` calls — zero parsing, zero copying, lazy paging.

Layout (all integers little-endian)::

    offset 0   magic          b"RTRC"
    offset 4   version        uint16 (currently 1)
    offset 6   reserved       uint16 (zero)
    offset 8   header_length  uint64 — byte length of the JSON header
    offset 16  header         UTF-8 JSON (see below)
    ...        zero padding to a 64-byte boundary
    data       raw array sections, each 64-byte aligned

The JSON header carries the trace metadata, the interner's user names
(index = interned id) and a section table::

    {"metadata": {...TraceMetadata fields...},
     "users": ["name0", "name1", ...],
     "sections": {"times":            {"dtype": "<f8", "shape": [S],     "offset": 0,   "nbytes": ...},
                  "snapshot_offsets": {"dtype": "<i8", "shape": [S + 1], "offset": ..., "nbytes": ...},
                  "user_ids":         {"dtype": "<i8", "shape": [N],     "offset": ..., "nbytes": ...},
                  "xyz":              {"dtype": "<f8", "shape": [N, 3],  "offset": ..., "nbytes": ...}}}

Section offsets are relative to the start of the (aligned) data
region, so the header can be serialized without a fix-point iteration.

A ``.rtrc.gz`` suffix gzips the same byte stream; compressed files
cannot be memory-mapped and are loaded in memory instead.

Reader tolerance
----------------

The writers here always emit the tight layout above, but readers
accept two relaxations so that stores written by earlier appendable
crawls stay loadable:

* the JSON header may be padded with trailing spaces — the preamble's
  ``header_length`` then names the padded size, and the data region
  starts at the 64-byte boundary after it;
* sections may sit at any 64-byte-aligned offsets with unused bytes
  between them, since every section is located through its
  ``offset`` alone.

Unknown header keys (such as those stores' ``"append"`` capacity
record) are ignored.  Live crawls grow shard directories instead
(:class:`~repro.trace.RtrcDirAppender`): every committed round is one
write-once ``.rtrc`` file.
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.trace.columnar import ColumnarStore, UserInterner
from repro.trace.trace import Trace, TraceMetadata

#: File magic of the rtrc format.
MAGIC = b"RTRC"

#: Current format version.
VERSION = 1

#: Alignment (bytes) of the data region and of every section.
ALIGNMENT = 64

#: Fixed-size preamble: magic + version + reserved + header length.
_PREAMBLE = struct.Struct("<4sHHQ")

#: Section order and dtypes; the columnar layout pinned on disk.
_SECTION_DTYPES = (
    ("times", "<f8"),
    ("snapshot_offsets", "<i8"),
    ("user_ids", "<i8"),
    ("xyz", "<f8"),
)

_METADATA_FIELDS = tuple(f.name for f in fields(TraceMetadata))


class TraceFormatError(ValueError):
    """A trace file is unreadable: wrong format, corrupt, or truncated.

    Base class for format-specific errors so callers can catch one
    exception across every on-disk representation.
    """


class RtrcFormatError(TraceFormatError):
    """Raised when a file is not a readable rtrc trace."""


class StoreChangedError(ValueError):
    """A live store broke the append-only contract under its holder.

    Raised in two places that share one failure shape: a
    :class:`~repro.core.live.LiveAnalyzer` follower whose shard
    directory swapped its committed file list; and an :class:`~repro.trace.RtrcDirAppender` whose directory
    was compacted (generation bumped) between open and commit.  In
    both cases the on-disk store is still internally consistent —
    only *this holder's* in-memory history is stale — so long-running
    consumers (the CLI ``--follow`` loop, the query service) catch
    this specifically and recover by re-opening a fresh follower or
    appender instead of dying.
    """


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _is_gzip(path: Path) -> bool:
    return path.suffix == ".gz"


def _section_arrays(store: ColumnarStore) -> dict[str, np.ndarray]:
    arrays = {
        "times": store.times,
        "snapshot_offsets": store.snapshot_offsets,
        "user_ids": store.user_ids,
        "xyz": store.xyz,
    }
    return {
        name: np.ascontiguousarray(arrays[name]).astype(dtype, copy=False)
        for name, dtype in _SECTION_DTYPES
    }


def _write_stream(handle: BinaryIO, store: ColumnarStore, metadata: TraceMetadata) -> None:
    arrays = _section_arrays(store)
    sections: dict[str, dict[str, object]] = {}
    cursor = 0
    for name, dtype in _SECTION_DTYPES:
        offset = _align(cursor)
        arr = arrays[name]
        sections[name] = {
            "dtype": dtype,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": arr.nbytes,
        }
        cursor = offset + arr.nbytes
    header = {
        "metadata": {name: getattr(metadata, name) for name in _METADATA_FIELDS},
        "users": list(store.users.names),
        "sections": sections,
    }
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    data_start = _align(_PREAMBLE.size + len(header_bytes))
    handle.write(_PREAMBLE.pack(MAGIC, VERSION, 0, len(header_bytes)))
    handle.write(header_bytes)
    handle.write(b"\0" * (data_start - _PREAMBLE.size - len(header_bytes)))
    cursor = 0
    for name, _ in _SECTION_DTYPES:
        offset = int(sections[name]["offset"])  # type: ignore[arg-type]
        handle.write(b"\0" * (offset - cursor))
        payload = arrays[name].tobytes()
        handle.write(payload)
        cursor = offset + len(payload)


def write_trace_rtrc(trace: Trace, path: str | Path) -> Path:
    """Write a trace in the binary columnar format; returns the path."""
    return write_store_rtrc(trace.columns, trace.metadata, path)


def write_store_rtrc(
    store: ColumnarStore,
    metadata: TraceMetadata,
    path: str | Path,
) -> Path:
    """Write a bare columnar store (plus metadata) as ``.rtrc``.

    The write goes to a temporary sibling file and is renamed into
    place: a memmap-backed store may be *reading* the target file, so
    truncating it in place would fault the still-mapped pages mid
    serialization (and a crash mid-write would corrupt the old data).
    """
    target = Path(path)
    fd, tmp_name = _tempfile_for(target)
    try:
        with os.fdopen(fd, "wb") as raw:
            if _is_gzip(target):
                with gzip.open(raw, "wb") as handle:
                    _write_stream(handle, store, metadata)
            else:
                _write_stream(raw, store, metadata)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def _tempfile_for(target: Path) -> tuple[int, str]:
    """A sibling temp file destined to be renamed onto ``target``.

    mkstemp creates 0600 files; the mode is widened to match what a
    plain ``open()`` under the caller's umask would have produced, so
    the rename does not silently tighten permissions.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, 0o666 & ~umask)
    return fd, tmp_name


def _parse_preamble(raw: bytes, path: Path) -> tuple[int, int]:
    """Validate the fixed preamble; returns ``(header_length, data_start)``."""
    if len(raw) < _PREAMBLE.size:
        raise RtrcFormatError(f"{path}: truncated rtrc file ({len(raw)} bytes)")
    magic, version, _reserved, header_length = _PREAMBLE.unpack_from(raw)
    if magic != MAGIC:
        raise RtrcFormatError(f"{path}: bad magic {magic!r}; not an rtrc trace")
    if version != VERSION:
        raise RtrcFormatError(
            f"{path}: unsupported rtrc version {version} (reader speaks {VERSION})"
        )
    return int(header_length), _align(_PREAMBLE.size + int(header_length))


def _parse_header(payload: bytes, path: Path) -> dict:
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RtrcFormatError(f"{path}: corrupt rtrc header ({exc})") from exc
    if not isinstance(header, dict):
        raise RtrcFormatError(f"{path}: rtrc header is not a JSON object")
    for key in ("metadata", "users", "sections"):
        if key not in header:
            raise RtrcFormatError(f"{path}: rtrc header misses {key!r}")
    missing = [name for name, _ in _SECTION_DTYPES if name not in header["sections"]]
    if missing:
        raise RtrcFormatError(f"{path}: rtrc header misses sections {missing}")
    for name, dtype in _SECTION_DTYPES:
        _validate_section_spec(header["sections"][name], name, np.dtype(dtype), path)
    return header


def _validate_section_spec(
    spec: object, name: str, dtype: np.dtype, path: Path
) -> None:
    """Reject malformed or internally inconsistent section tables.

    Everything the loaders later trust — integer offsets, a sane shape,
    and ``nbytes`` matching ``shape`` — is checked here so corruption
    surfaces as an :class:`RtrcFormatError` naming the section, never
    as a numpy reshape/memmap traceback deep in the load.
    """
    if not isinstance(spec, dict):
        raise RtrcFormatError(f"{path}: section {name!r} is not an object")
    for key in ("shape", "offset", "nbytes"):
        if key not in spec:
            raise RtrcFormatError(f"{path}: section {name!r} misses {key!r}")
    shape = spec["shape"]
    if not isinstance(shape, list) or not all(
        isinstance(v, int) and v >= 0 for v in shape
    ):
        raise RtrcFormatError(
            f"{path}: section {name!r} has invalid shape {shape!r}"
        )
    offset, nbytes = spec["offset"], spec["nbytes"]
    if not isinstance(offset, int) or offset < 0 or offset % ALIGNMENT != 0:
        raise RtrcFormatError(
            f"{path}: section {name!r} has invalid offset {offset!r}"
        )
    if not isinstance(nbytes, int) or nbytes < 0:
        raise RtrcFormatError(
            f"{path}: section {name!r} has invalid nbytes {nbytes!r}"
        )
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if nbytes != expected:
        raise RtrcFormatError(
            f"{path}: section {name!r} length mismatch — shape {shape} "
            f"needs {expected} bytes, header claims {nbytes}"
        )


def _store_from_sections(
    header: dict,
    load_section,
    path: Path,
) -> tuple[ColumnarStore, TraceMetadata]:
    arrays = {}
    for name, dtype in _SECTION_DTYPES:
        spec = header["sections"][name]
        shape = tuple(int(v) for v in spec["shape"])
        arrays[name] = load_section(spec, np.dtype(dtype), shape)
    try:
        metadata = TraceMetadata(**header["metadata"])
    except (TypeError, ValueError) as exc:
        raise RtrcFormatError(f"{path}: invalid rtrc metadata ({exc})") from exc
    try:
        store = ColumnarStore(
            arrays["times"],
            arrays["snapshot_offsets"],
            arrays["user_ids"],
            arrays["xyz"],
            UserInterner(header["users"]),
        )
    except (TypeError, ValueError) as exc:
        raise RtrcFormatError(
            f"{path}: rtrc sections do not form a valid trace ({exc})"
        ) from exc
    return store, metadata


def read_store_rtrc(
    path: str | Path,
    mmap: bool = True,
) -> tuple[ColumnarStore, TraceMetadata]:
    """Load the columnar store and metadata of an ``.rtrc`` file.

    With ``mmap`` (the default, plain files only) the arrays are
    ``np.memmap``-backed read-only views: nothing is parsed or copied,
    and pages fault in lazily as the analysis touches them.  Gzipped
    files fall back to an in-memory load.
    """
    source = Path(path)
    if _is_gzip(source):
        with gzip.open(source, "rb") as handle:
            raw = handle.read()
        return _read_buffer(raw, source)
    if not mmap:
        return _read_buffer(source.read_bytes(), source)

    file_size = source.stat().st_size
    with open(source, "rb") as handle:
        preamble = handle.read(_PREAMBLE.size)
        header_length, data_start = _parse_preamble(preamble, source)
        if _PREAMBLE.size + header_length > file_size:
            raise RtrcFormatError(
                f"{source}: truncated rtrc file — header claims "
                f"{header_length} bytes, file has {file_size}"
            )
        header = _parse_header(handle.read(header_length), source)

    def load_section(spec: dict, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        nbytes = int(spec["nbytes"])
        if nbytes == 0:
            return np.empty(shape, dtype=dtype)
        end = data_start + int(spec["offset"]) + nbytes
        if end > file_size:
            raise RtrcFormatError(
                f"{source}: truncated rtrc file — section needs bytes up to "
                f"{end}, file has {file_size}"
            )
        return np.memmap(
            source,
            dtype=dtype,
            mode="r",
            offset=data_start + int(spec["offset"]),
            shape=shape,
        )

    return _store_from_sections(header, load_section, source)


def _read_buffer(raw: bytes, path: Path) -> tuple[ColumnarStore, TraceMetadata]:
    header_length, data_start = _parse_preamble(raw, path)
    if _PREAMBLE.size + header_length > len(raw):
        raise RtrcFormatError(
            f"{path}: truncated rtrc file — header claims {header_length} "
            f"bytes, buffer has {len(raw)}"
        )
    header = _parse_header(raw[_PREAMBLE.size:_PREAMBLE.size + header_length], path)

    def load_section(spec: dict, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        nbytes = int(spec["nbytes"])
        if nbytes == 0:
            return np.empty(shape, dtype=dtype)
        start = data_start + int(spec["offset"])
        if start + nbytes > len(raw):
            raise RtrcFormatError(
                f"{path}: truncated rtrc file — section needs bytes up to "
                f"{start + nbytes}, buffer has {len(raw)}"
            )
        return np.frombuffer(
            raw, dtype=dtype, count=int(np.prod(shape)), offset=start
        ).reshape(shape)

    return _store_from_sections(header, load_section, path)


def read_trace_rtrc(path: str | Path, mmap: bool = True) -> Trace:
    """Read a trace written by :func:`write_trace_rtrc`."""
    store, metadata = read_store_rtrc(path, mmap=mmap)
    return Trace.from_columns(store, metadata)


def read_rtrc_header(path: str | Path) -> dict:
    """Parse just the preamble and JSON header of an ``.rtrc`` file.

    Shapes, user table and metadata without touching a single data
    page — the storage-lifecycle bookkeeping (slack accounting, row
    counts after a retention pass) needs exactly this.  Works on
    ``.rtrc.gz`` too: gzip decompresses lazily, so only the blocks
    holding the header are inflated, not the sections.
    """
    source = Path(path)
    opener = gzip.open(source, "rb") if _is_gzip(source) else open(source, "rb")
    with opener as handle:
        preamble = handle.read(_PREAMBLE.size)
        header_length, _ = _parse_preamble(preamble, source)
        payload = handle.read(header_length)
        if len(payload) < header_length:
            raise RtrcFormatError(
                f"{source}: truncated rtrc file — header claims "
                f"{header_length} bytes, file ends early"
            )
        return _parse_header(payload, source)
