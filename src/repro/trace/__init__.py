"""Mobility-trace data model and I/O.

A *trace* is what the paper's crawler produces: a time-ordered sequence
of snapshots, each mapping every connected user to a land-relative
position.  The analysis layer (:mod:`repro.core`) consumes traces
without caring whether they came from the simulator, from the virtual
sensor network, from a file, or from a real 2008 crawl — the record
format is plain ``(t, user, x, y, z)``.
"""

from repro.trace.columnar import (
    ColumnarBuilder,
    ColumnarStore,
    UserInterner,
    store_from_records,
)
from repro.trace.records import PositionRecord, Snapshot
from repro.trace.trace import Trace, TraceMetadata
from repro.trace.storage import (
    RtrcFormatError,
    StoreChangedError,
    TraceFormatError,
    read_rtrc_header,
    read_store_rtrc,
    read_trace_rtrc,
    write_store_rtrc,
    write_trace_rtrc,
)
from repro.trace.io import (
    read_trace,
    read_trace_csv,
    read_trace_jsonl,
    trace_format,
    write_trace,
    write_trace_csv,
    write_trace_jsonl,
)
from repro.trace.sharding import (
    CompactionPolicy,
    RtrcDirAppender,
    compact_shard_dir,
    concat_shards,
    concat_stores,
    list_rtrc_dir,
    read_rtrc_dir,
    read_shard_manifest,
    retain_shard_dir,
    shard_dir_generation,
    shard_dir_slack,
    shard_edges,
    split_time_shards,
    tier_shard_dir,
    to_rtrc_dir,
)
from repro.trace.sessions import (
    SessionSet,
    UserSession,
    extract_session_set,
    extract_sessions,
)
from repro.trace.validation import TraceIssue, validate_trace
from repro.trace.synth import (
    constant_positions_trace,
    crossing_users_trace,
    metaverse_trace,
    orbiting_users_trace,
    random_walk_trace,
)

__all__ = [
    "ColumnarBuilder",
    "ColumnarStore",
    "UserInterner",
    "store_from_records",
    "PositionRecord",
    "Snapshot",
    "Trace",
    "TraceMetadata",
    "RtrcFormatError",
    "StoreChangedError",
    "TraceFormatError",
    "read_rtrc_header",
    "read_store_rtrc",
    "read_trace_rtrc",
    "write_store_rtrc",
    "write_trace_rtrc",
    "read_trace",
    "read_trace_csv",
    "read_trace_jsonl",
    "trace_format",
    "write_trace",
    "write_trace_csv",
    "write_trace_jsonl",
    "CompactionPolicy",
    "RtrcDirAppender",
    "compact_shard_dir",
    "concat_shards",
    "concat_stores",
    "list_rtrc_dir",
    "read_rtrc_dir",
    "read_shard_manifest",
    "retain_shard_dir",
    "shard_dir_generation",
    "shard_dir_slack",
    "shard_edges",
    "split_time_shards",
    "tier_shard_dir",
    "to_rtrc_dir",
    "SessionSet",
    "UserSession",
    "extract_session_set",
    "extract_sessions",
    "TraceIssue",
    "validate_trace",
    "constant_positions_trace",
    "metaverse_trace",
    "crossing_users_trace",
    "orbiting_users_trace",
    "random_walk_trace",
]
