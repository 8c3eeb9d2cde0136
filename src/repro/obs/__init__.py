"""repro.obs — unified observability: metrics registry, spans, and sinks.

One queryable surface for every counter the repo keeps.  The registry's
numbers are exposed three ways:

* ``GET /metrics`` (or ``{"op": "metrics"}``) on a running
  :class:`~repro.service.aserver.AsyncProximityServer`,
* ``repro stats --snapshot`` on the CLI, and
* a :class:`~repro.obs.sinks.MetricsSink` handed to
  :func:`~repro.harness.runner.run_experiment`.

See ``docs/observability_guide.md`` for the metric-name catalogue.
"""

from repro.obs.bridge import (
    RESOLVER_METRICS,
    comparison_call_counter,
    oracle_call_counter,
    publish_resolver_stats,
    resolver_stats_view,
)
from repro.obs.registry import (
    ANSWER_STRETCH_BUCKETS,
    BATCH_SIZE_BUCKETS,
    BOUND_GAP_BUCKETS,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    merge_metrics,
    registry_totals,
    relabel_metrics,
)
from repro.obs.sinks import CollectingSink, JsonlSink, MetricsSink
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "ANSWER_STRETCH_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "BOUND_GAP_BUCKETS",
    "LATENCY_BUCKETS_S",
    "CollectingSink",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSink",
    "RESOLVER_METRICS",
    "Span",
    "SpanTracer",
    "comparison_call_counter",
    "merge_metrics",
    "oracle_call_counter",
    "publish_resolver_stats",
    "registry_totals",
    "relabel_metrics",
    "resolver_stats_view",
]
