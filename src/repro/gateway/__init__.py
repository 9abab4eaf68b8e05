"""Async serving gateway: the one request path to the online scoring layer.

Builds the front door for :mod:`repro.serving` — newline-delimited JSON
over stdin or TCP plus an HTTP/1.1 adapter, all asyncio, with
dynamic micro-batching (concurrent requests coalesce into shared
forward batches, bitwise-equal to sequential scoring), admission
control with load shedding and per-client rate limits, Prometheus
metrics, graceful drain, and zero-downtime model hot-swaps from a
:class:`~repro.serving.registry.ModelRegistry`.

The routing layer (:mod:`repro.gateway.router`) multiplexes the same
transports over many services: named services (the NDJSON ``"service"``
field, the ``/v1/t/<name>/...`` path prefix, or the ``X-Repro-Service``
header), replica pools sharing one graph read-only across worker
processes, and lazily-booted tenant stores with idle eviction.
"""

from ..obs.metrics import (
    BATCH_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .admission import (
    DRAINING,
    QUEUE_FULL,
    RATE_LIMITED,
    AdmissionController,
    TokenBucket,
)
from .batcher import MicroBatcher
from .protocol import (
    ERROR_CODES,
    REQUEST_ERRORS,
    UPDATE_OPS,
    attach_request_id,
    dispatch_request,
    error_response,
    parse_request,
    rejection_response,
    transport_error,
)
from .router import (
    DEFAULT_SERVICE,
    ReplicaPool,
    ServiceEndpoint,
    ServiceRouter,
    TenantSpec,
    build_tenant_service,
    load_tenant_specs,
    parse_tenant_spec,
)
from .server import Gateway, run_gateway

__all__ = [
    "Gateway",
    "run_gateway",
    "ServiceRouter",
    "ServiceEndpoint",
    "ReplicaPool",
    "TenantSpec",
    "parse_tenant_spec",
    "load_tenant_specs",
    "build_tenant_service",
    "DEFAULT_SERVICE",
    "MicroBatcher",
    "AdmissionController",
    "TokenBucket",
    "QUEUE_FULL",
    "RATE_LIMITED",
    "DRAINING",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "BATCH_BUCKETS",
    "dispatch_request",
    "parse_request",
    "error_response",
    "rejection_response",
    "transport_error",
    "attach_request_id",
    "REQUEST_ERRORS",
    "UPDATE_OPS",
    "ERROR_CODES",
]
