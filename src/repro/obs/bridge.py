"""Bridges between the hot-path stats dataclasses and the metrics registry.

``ResolverStats`` stays the mutable, lock-free tally that ``SmartResolver``
updates on its hot path — that is what keeps resolved-edge sequences
byte-identical whether or not observability is enabled.  These helpers move
numbers between that world and a :class:`~repro.obs.registry.MetricsRegistry`:

* :func:`publish_resolver_stats` folds the *delta* since the previous
  publish into registry counters (so repeated publishing never
  double-counts), and
* :func:`resolver_stats_view` reconstructs a ``ResolverStats`` from the
  registry, which is how ``EngineStats`` becomes a thin view over the
  registry while keeping its public shape.

The metric-name mapping below is the single source of truth; the docs
catalogue in ``docs/observability_guide.md`` mirrors it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.obs.registry import MetricsRegistry

__all__ = [
    "RESOLVER_METRICS",
    "publish_resolver_stats",
    "resolver_stats_view",
]

#: field on ``ResolverStats`` -> (metric name, labels, help text).
RESOLVER_METRICS: Tuple[Tuple[str, str, Dict[str, str], str], ...] = (
    (
        "decided_by_bounds",
        "repro_resolver_comparisons_total",
        {"decided_by": "bounds"},
        "Comparison predicates answered, split by what decided them.",
    ),
    (
        "decided_by_oracle",
        "repro_resolver_comparisons_total",
        {"decided_by": "oracle"},
        "Comparison predicates answered, split by what decided them.",
    ),
    (
        "bound_queries",
        "repro_resolver_bound_queries_total",
        {},
        "Lower/upper bound computations requested from the bound provider.",
    ),
    (
        "resolutions",
        "repro_resolver_resolutions_total",
        {},
        "Exact distances resolved (oracle calls plus cache hits).",
    ),
    (
        "oracle_resolutions",
        "repro_resolver_oracle_resolutions_total",
        {},
        "Exact distances that required a charged oracle call.",
    ),
    (
        "cached_resolutions",
        "repro_resolver_cached_resolutions_total",
        {},
        "Exact distances served from the partial distance graph.",
    ),
    (
        "batched_resolutions",
        "repro_resolver_batched_resolutions_total",
        {},
        "Distances resolved through a BatchOracle batcher.",
    ),
    (
        "bound_time_s",
        "repro_resolver_bound_seconds_total",
        {},
        "Wall-clock seconds spent computing bounds.",
    ),
    (
        "bound_cache_hits",
        "repro_resolver_memo_hits_total",
        {},
        "Bound queries answered from the epoch-keyed bound memo.",
    ),
    (
        "vectorized_batches",
        "repro_resolver_vectorized_batches_total",
        {},
        "Batched bound requests served by a vectorized bounds_many kernel.",
    ),
    (
        "dijkstra_runs",
        "repro_resolver_dijkstra_runs_total",
        {},
        "Dijkstra traversals run by the SPLUB bound provider.",
    ),
    (
        "weak_calls",
        "repro_resolver_weak_calls_total",
        {},
        "Charged weak-tier (banded estimate) oracle calls.",
    ),
    (
        "strong_calls",
        "repro_resolver_strong_calls_total",
        {},
        "Charged strong-tier (exact) oracle calls.",
    ),
    (
        "weak_band",
        "repro_resolver_weak_band_total",
        {},
        "Bound queries strictly tightened by a weak oracle's error band.",
    ),
    (
        "approx_answers",
        "repro_resolver_approx_answers_total",
        {},
        "Distances answered as bounded-stretch estimates without the oracle.",
    ),
)


def publish_resolver_stats(registry: MetricsRegistry, stats, previous=None):
    """Fold ``stats - previous`` into registry counters; return a baseline.

    ``stats`` is any object with ``ResolverStats``'s fields (duck-typed).
    Pass the returned baseline back as ``previous`` on the next publish so
    only new activity is added.  Callback-backed counters (a live source
    already owns that number) are skipped rather than double-written.
    """
    for field_name, metric, labels, help_text in RESOLVER_METRICS:
        current = float(getattr(stats, field_name, 0) or 0)
        prior = float(getattr(previous, field_name, 0) or 0) if previous is not None else 0.0
        delta = current - prior
        if delta <= 0:
            continue
        family = registry.counter(metric, help_text, labelnames=tuple(labels))
        if family.is_callback:
            continue
        child = family.labels(**labels) if labels else family
        child.inc(delta)
    from repro.core.resolver import ResolverStats

    baseline = ResolverStats()
    for field_name, _, _, _ in RESOLVER_METRICS:
        setattr(baseline, field_name, getattr(stats, field_name, 0))
    return baseline


def _sample_value(registry: MetricsRegistry, metric: str, labels: Dict[str, str]) -> float:
    family = registry.get(metric)
    if family is None:
        return 0.0
    child = family.labels(**labels) if labels else family
    return child.value


def resolver_stats_view(registry: MetricsRegistry):
    """Reconstruct a ``ResolverStats`` from the registry's resolver counters."""
    from repro.core.resolver import ResolverStats

    view = ResolverStats()
    for field_name, metric, labels, _ in RESOLVER_METRICS:
        value = _sample_value(registry, metric, labels)
        if field_name == "bound_time_s":
            setattr(view, field_name, value)
        else:
            setattr(view, field_name, int(value))
    return view


def oracle_call_counter(registry: MetricsRegistry, oracle) -> None:
    """Register ``repro_oracle_calls_total`` as a live view of ``oracle.calls``.

    Callback-backed so it reconciles *exactly* with ``oracle.calls`` (and
    hence ``EngineStats.oracle_calls``) at every instant, including charges
    made before the registry was attached.
    """
    registry.counter(
        "repro_oracle_calls_total",
        "Charged distance-oracle calls (cache hits are free).",
        fn=lambda: oracle.calls,
    )
    registry.counter(
        "repro_oracle_retries_total",
        "Oracle evaluations retried by an executor.",
        fn=lambda: oracle.retries,
    )
    registry.counter(
        "repro_oracle_timeouts_total",
        "Oracle evaluations that timed out under an executor deadline.",
        fn=lambda: oracle.timeouts,
    )


def comparison_call_counter(registry: MetricsRegistry, comparison) -> None:
    """Register ``repro_comparison_calls_total`` over a ``ComparisonOracle``.

    Callback-backed, mirroring :func:`oracle_call_counter`: the counter is a
    live view of :attr:`~repro.core.oracle.ComparisonOracle.comparisons`, the
    number of ordering queries ("is ``d(a, b) < d(c, d)``?") the
    comparison-only oracle mode has answered.
    """
    registry.counter(
        "repro_comparison_calls_total",
        "Ordering queries answered by the comparison-only oracle mode.",
        fn=lambda: comparison.comparisons,
    )
