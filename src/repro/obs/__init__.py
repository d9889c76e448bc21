"""Observability for the networked DSSP: metrics, traces, structured logs.

Closes the loop between the analytic model and the live system:

* :mod:`repro.obs.metrics` — dependency-free counters, gauges, and
  fixed-log-bucket latency histograms with JSON-safe ``snapshot()``,
  fleet-level ``merge``, and exemplars linking slow observations to
  trace ids;
* :mod:`repro.obs.log` — structured log records carrying node/app/request
  context, rendered as key=value text or JSON lines, plus the request-id
  generator used for trace propagation across the wire;
* :mod:`repro.obs.trace` — span recording over the wire-v2 request id:
  head-sampled, ambient per-task context, JSON-lines span logs;
* :mod:`repro.obs.assemble` — joins the span logs of N nodes into trace
  trees and computes critical-path / per-phase breakdowns;
* :mod:`repro.obs.prom` — Prometheus text exposition of snapshots;
* :mod:`repro.obs.memo` — the one bounded memo every layer uses, which
  exports its own hits / misses / size / bound.

Everything here obeys the service layer's exposure invariant: metric
names, identifiers, and durations are exported — statement text,
parameters, sealed bytes, and result rows never are.
"""

from repro.obs.log import (
    ContextAdapter,
    StructuredFormatter,
    configure_logging,
    envelope_context,
    new_request_id,
    with_context,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    log_buckets,
    merge_snapshots,
    per_app_counters,
)
from repro.obs.prom import render_prometheus, render_prometheus_fleet
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanRecorder,
    SpanSink,
    current_trace_id,
    span,
    trace_sampled,
)

__all__ = [
    "ContextAdapter",
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "SpanRecorder",
    "SpanSink",
    "StructuredFormatter",
    "configure_logging",
    "current_trace_id",
    "envelope_context",
    "histogram_quantile",
    "log_buckets",
    "merge_snapshots",
    "new_request_id",
    "per_app_counters",
    "render_prometheus",
    "render_prometheus_fleet",
    "span",
    "trace_sampled",
    "with_context",
]
