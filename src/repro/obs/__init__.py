"""Observability: tracing, metrics, and profiling for the whole repo.

Three pieces, one import surface:

* :mod:`repro.obs.trace` — contextvar-propagated request spans with
  monotonic timing, a lock-free :class:`FlightRecorder` ring retaining
  recent plus slow/errored traces, and the capture/adopt pair that
  ships spans across the worker-process boundary.
* :mod:`repro.obs.metrics` — the ``Counter``/``Gauge``/``Histogram``
  registry (the gateway's ``/metrics`` renders it).
* :mod:`repro.obs.profiling` — the one wall-clock/peak-memory timing
  utility (the experiments, benchmarks and tracing share it).

Tracing is off unless a recorder is installed (the gateway installs
one by default; ``repro trace --profile`` installs one for a run), and
the disabled path is a single shared no-op object — hot loops stay
allocation-free.  Ids are counter-based, never random: instrumentation
cannot perturb any counter-based RNG stream, so every bitwise
equivalence pin holds with tracing on.
"""

from .metrics import (
    BATCH_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profiling import ResourceUsage, measure, profile_call

# NOTE: the ``trace()`` entry point is deliberately NOT re-exported at
# package level — it would shadow the ``repro.obs.trace`` submodule,
# breaking ``from repro.obs import trace as obs_trace`` (the idiom every
# instrumented call site uses).  Start a root trace via
# ``obs_trace.trace(...)`` on the submodule.
from .trace import (
    NOOP_SPAN,
    FlightRecorder,
    Span,
    TraceBuffer,
    active,
    adopt_spans,
    capture_spans,
    clear_context,
    current_context,
    current_ids,
    enabled,
    get_recorder,
    install,
    record_span,
    span,
    span_tree,
    stage_table,
    uninstall,
    use_context,
)

__all__ = [
    # trace (the submodule itself holds the ``trace()`` entry point)
    "Span",
    "TraceBuffer",
    "FlightRecorder",
    "NOOP_SPAN",
    "span",
    "trace",
    "active",
    "enabled",
    "install",
    "uninstall",
    "get_recorder",
    "current_context",
    "current_ids",
    "use_context",
    "clear_context",
    "capture_spans",
    "adopt_spans",
    "record_span",
    "span_tree",
    "stage_table",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "BATCH_BUCKETS",
    # profiling
    "ResourceUsage",
    "measure",
    "profile_call",
]
