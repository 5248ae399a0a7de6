"""``repro.obs`` — end-to-end observability for the Solros stack.

Three pieces, bundled per simulated machine by
:class:`~repro.obs.hub.ObservabilityHub` (which also carries the
fault injector):

* :mod:`~repro.obs.tracer` — request-scoped spans on the simulated
  clock, propagated across the RPC/ring transport as trace contexts.
* :mod:`~repro.obs.metrics` — counters, gauges, histograms, and rate
  meters keyed by name and timestamped with ``engine.now``.
* :mod:`~repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON and
  flat metrics JSON, wired into ``python -m repro.bench`` via
  ``--trace-out`` / ``--metrics-out``.

See ``docs/OBSERVABILITY.md`` for the span model and metric catalog.
"""

from .export import (
    chrome_trace,
    metrics_json,
    write_chrome_trace,
    write_metrics_json,
)
from .hub import (
    NULL_HUB,
    Capture,
    ObservabilityHub,
    active_capture,
    disable_capture,
    enable_capture,
)
from .metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    RateMeter,
)
from .tracer import NULL_TRACER, NullTracer, Span, SpanContext, Tracer

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "RateMeter",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "ObservabilityHub",
    "NULL_HUB",
    "Capture",
    "enable_capture",
    "disable_capture",
    "active_capture",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_json",
    "write_metrics_json",
]
