"""Observability: tracing, metrics, and run reports (``repro.obs``).

The layer every serving stack carries, for the Figure-1 engine:

- :mod:`repro.obs.tracing` — a :class:`Tracer` of nested monotonic
  :class:`Span`\\ s with a per-run ``trace_id``; the engine emits spans
  for batches, documents, Figure-1 phases and evolution phases.  The
  default :data:`NULL_TRACER` is a shared no-op: tracing costs one flag
  check until enabled.
- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms with p50/p90/p99 summaries and
  Prometheus text exposition; it mirrors (never replaces)
  :class:`~repro.perf.PerfCounters`.
- :mod:`repro.obs.export` — Chrome trace-event JSON
  (``about:tracing`` / Perfetto) and a compact JSONL stream, with a
  loader for both.
- :mod:`repro.obs.report` — the latency tables behind
  ``dtdevolve report``.
- :mod:`repro.obs.logging` — structured JSON logging with per-request
  correlation ids (the ``--log-json`` formatter).
- :mod:`repro.obs.live` — continuous-service telemetry: the sampled
  always-on :class:`Sampler`, the :class:`SpanRing` behind
  ``/debug/slow``, the :class:`RotatingJsonlSink`, and the
  :class:`DriftMonitor` exporting evolution-drift health gauges.

See ``docs/API.md`` ("Observability" and "Operating the service") for
the span naming scheme, log schema, and drift metrics; DESIGN.md
decisions 10 and 15 for the off-the-merge-path rationale.
"""

from repro.obs.export import (
    chrome_trace,
    load_trace,
    span_dict,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.live import (
    DriftMonitor,
    RequestSample,
    RotatingJsonlSink,
    Sampler,
    SpanRing,
    build_request_spans,
)
from repro.obs.logging import (
    CorrelationFilter,
    JsonFormatter,
    configure_json_logging,
    current_request_id,
    request_context,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import render_report, stage_latencies
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanCollector,
    Tracer,
)

__all__ = [
    "Tracer",
    "Span",
    "SpanCollector",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "span_dict",
    "load_trace",
    "render_report",
    "stage_latencies",
    "Sampler",
    "RequestSample",
    "SpanRing",
    "RotatingJsonlSink",
    "DriftMonitor",
    "build_request_spans",
    "JsonFormatter",
    "CorrelationFilter",
    "configure_json_logging",
    "current_request_id",
    "request_context",
]
