"""The paper's analysis layer.

Everything here consumes a :class:`~repro.trace.Trace` and produces
the statistics of §3/§4:

* :mod:`repro.core.contacts` — contact time (CT), inter-contact time
  (ICT) and first contact time (FT) under a communication range *r*;
* :mod:`repro.core.kernels` — the vectorized run-length extraction
  kernels and the columnar :class:`ContactSet` they produce;
* :mod:`repro.core.losgraph` — line-of-sight network snapshots and
  their degree / diameter / clustering distributions;
* :mod:`repro.core.spatial` — travel length, effective travel time,
  travel (login) time, zone occupation;
* :mod:`repro.core.analyzer` — the :class:`TraceAnalyzer` facade that
  caches expensive extractions and exposes every metric as an
  :class:`~repro.stats.ECDF`;
* :mod:`repro.core.report` — plain-text rendering of the results.

The two canonical ranges are exported as :data:`BLUETOOTH_RANGE`
(r_b = 10 m) and :data:`WIFI_RANGE` (r_w = 80 m).
"""

from repro.core.contacts import (
    BLUETOOTH_RANGE,
    WIFI_RANGE,
    ContactInterval,
    contact_durations,
    extract_contact_set,
    extract_contact_sets_multirange,
    extract_contacts,
    extract_contacts_multirange,
    first_contact_times,
    inter_contact_times,
    iter_snapshot_pairs,
    snapshot_id_pairs,
)
from repro.core.kernels import (
    ContactEventTable,
    ContactSet,
    build_contact_events,
    contact_set_from_columns,
    contact_set_from_events,
    multirange_contact_sets,
)
from repro.core.sharded import (
    ShardAnalysisError,
    ShardedAnalyzer,
    merge_shard_contacts,
    merge_shard_sessions,
)
from repro.core.live import LiveAnalyzer, StoreChangedError
from repro.core.windowed import WindowedAnalyzer
from repro.core.losgraph import (
    clustering_series,
    degree_samples,
    diameter_series,
    isolation_fraction,
    snapshot_graph,
)
from repro.core.spatial import (
    effective_travel_times,
    travel_lengths,
    travel_times,
    zone_occupation,
)
from repro.core.analyzer import TraceAnalyzer, TraceSummary
from repro.core.report import render_ccdf_table, render_summary_table

__all__ = [
    "BLUETOOTH_RANGE",
    "WIFI_RANGE",
    "ContactEventTable",
    "ContactInterval",
    "ContactSet",
    "build_contact_events",
    "contact_durations",
    "contact_set_from_columns",
    "contact_set_from_events",
    "extract_contact_set",
    "extract_contact_sets_multirange",
    "extract_contacts",
    "extract_contacts_multirange",
    "multirange_contact_sets",
    "LiveAnalyzer",
    "StoreChangedError",
    "ShardAnalysisError",
    "ShardedAnalyzer",
    "WindowedAnalyzer",
    "merge_shard_contacts",
    "merge_shard_sessions",
    "first_contact_times",
    "inter_contact_times",
    "iter_snapshot_pairs",
    "snapshot_id_pairs",
    "clustering_series",
    "degree_samples",
    "diameter_series",
    "isolation_fraction",
    "snapshot_graph",
    "effective_travel_times",
    "travel_lengths",
    "travel_times",
    "zone_occupation",
    "TraceAnalyzer",
    "TraceSummary",
    "render_ccdf_table",
    "render_summary_table",
]
