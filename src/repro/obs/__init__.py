"""repro.obs — unified observability: metrics registry + request tracing.

Two process-wide singletons every subsystem shares:

* :func:`get_registry` — named counters / gauges / bounded-bucket
  histograms with a pure-data :meth:`~repro.obs.registry.
  MetricsRegistry.snapshot` (surfaced by the service ``stats`` verb and
  the ``yoso stats`` CLI).
* :func:`get_tracer` — context-manager spans with trace ids that follow
  a request from :class:`~repro.service.client.ServiceClient` through
  the scheduler's coalescing window, pool shard dispatch and store
  lookups (disabled by default; enable with :func:`configure_tracing`).

Plus :func:`cpu_budget`, the CPUs this process may use, which gates the
benchmarks' concurrency floors.  See ``docs/OBSERVABILITY.md``.
"""

from .host import cpu_budget
from .registry import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    histogram_quantile,
)
from .render import format_seconds, render_metrics, render_stats
from .tracing import (
    NULL_SPAN,
    Span,
    Tracer,
    configure_tracing,
    current_context,
    get_tracer,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "COUNT_BUCKETS",
    "LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "configure_tracing",
    "cpu_budget",
    "current_context",
    "format_seconds",
    "get_registry",
    "get_tracer",
    "histogram_quantile",
    "new_span_id",
    "new_trace_id",
    "render_metrics",
    "render_stats",
]
