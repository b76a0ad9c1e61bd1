"""The mobility-analytics query service.

The network half of the reproduction: :class:`QueryService` serves
cached JSON analytics over live shard directories
(:mod:`repro.service.server`), :class:`HttpRoundSink` streams a
crawler's committed rounds into it over HTTP
(:mod:`repro.service.client`), and :mod:`repro.service.encoding`
fixes the canonical response bytes both the service and its
equivalence tests build.
"""

from repro.service.client import (
    HttpRoundSink,
    ServiceRejectedRound,
    ServiceUnreachable,
)
from repro.service.encoding import (
    contacts_payload,
    encode,
    error_payload,
    samples_payload,
    sessions_payload,
    status_payload,
)
from repro.service.server import (
    DEFAULT_INGEST_BODY_LIMIT,
    DEFAULT_INGEST_BUDGET,
    QueryService,
    ServiceError,
    ServiceStats,
    etag_matches,
)
from repro.service.transport import (
    TRANSIENT_STATUSES,
    TransportUnavailable,
    request_bytes,
)

__all__ = [
    "HttpRoundSink",
    "ServiceRejectedRound",
    "ServiceUnreachable",
    "QueryService",
    "ServiceError",
    "ServiceStats",
    "DEFAULT_INGEST_BODY_LIMIT",
    "DEFAULT_INGEST_BUDGET",
    "TRANSIENT_STATUSES",
    "TransportUnavailable",
    "etag_matches",
    "request_bytes",
    "contacts_payload",
    "encode",
    "error_payload",
    "samples_payload",
    "sessions_payload",
    "status_payload",
]
