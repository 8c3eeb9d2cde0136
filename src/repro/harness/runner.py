"""Experiment runner: algorithm × provider × dataset with full accounting.

Reproduces the paper's measurement discipline:

* **oracle calls** are split into *bootstrap* (landmark pre-pay) and
  *algorithm* phases — Tables 2 and 3 report them separately;
* **CPU overhead** is wall time minus simulated oracle latency (§5.1.5);
* **completion time** under an expensive oracle is reconstructed on the
  virtual clock as ``cpu_seconds + calls × cost_per_call``, which is exactly
  the arithmetic behind the paper's Figures 7d/8a/8b and avoids hours of
  sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

from repro.algorithms import clarans, knn_graph, knn_graph_brute, kruskal_mst, pam, prim_mst
from repro.algorithms.dbscan import dbscan
from repro.algorithms.kcenter import k_center
from repro.algorithms.linkage import single_linkage
from repro.algorithms.prim import prim_mst_comparisons
from repro.algorithms.tsp import nearest_neighbor_tour
from repro.bounds.landmarks import bootstrap_with_landmarks, default_num_landmarks
from repro.core.resolver import ResolverStats, SmartResolver
from repro.core.tiering import TieredOracle, WeakOracle
from repro.exec import BatchOracle, ExecutorStats, make_executor, open_cache
from repro.exec.executor import DEFAULT_WORKERS
from repro.harness.providers import LANDMARK_PROVIDERS, attach_provider
from repro.obs import MetricsRegistry, MetricsSink, oracle_call_counter
from repro.spaces.base import MetricSpace

#: Host algorithms runnable by name.
ALGORITHMS: Dict[str, Callable[..., Any]] = {
    "prim": prim_mst,
    "prim-cmp": prim_mst_comparisons,
    "kruskal": kruskal_mst,
    "knng": knn_graph,
    "knng-brute": knn_graph_brute,
    "pam": pam,
    "clarans": clarans,
    "dbscan": dbscan,
    "kcenter": k_center,
    "linkage": single_linkage,
    "nn-tour": nearest_neighbor_tour,
}


@dataclass
class ExperimentRecord:
    """One (dataset, algorithm, provider) measurement."""

    algorithm: str
    provider: str
    n: int
    num_pairs: int
    bootstrap_calls: int
    algorithm_calls: int
    cpu_seconds: float
    oracle_cost_per_call: float
    result: Any = field(repr=False, default=None)
    params: Dict[str, Any] = field(default_factory=dict)
    #: Execution strategy: "inline" (no batching), "serial", or "threaded".
    executor: str = "inline"
    oracle_retries: int = 0
    oracle_timeouts: int = 0
    #: Virtual-clock latency actually accrued; under a concurrent executor
    #: this is lower than ``total_calls × cost_per_call`` because
    #: overlapping calls are priced by elapsed latency, not summed latency.
    simulated_oracle_seconds: float = 0.0
    #: Pairs answered by a persistent --oracle-cache backend (never charged).
    persistent_cache_hits: int = 0
    executor_stats: Optional[ExecutorStats] = field(repr=False, default=None)
    #: Resolver-side accounting (bound-engine counters included), collected
    #: after the algorithm phase via :meth:`SmartResolver.collect_stats`.
    resolver_stats: Optional[ResolverStats] = field(repr=False, default=None)
    #: Flat metrics-registry snapshot (``{sample_name: value}``), present
    #: when the run was observed through a registry or MetricsSink.
    metrics: Optional[Dict[str, float]] = field(repr=False, default=None)

    @property
    def bound_time_s(self) -> float:
        """Wall time spent inside bound-provider kernels."""
        return self.resolver_stats.bound_time_s if self.resolver_stats else 0.0

    @property
    def bound_cache_hits(self) -> int:
        """Bound queries answered from the epoch memo without recomputation."""
        return self.resolver_stats.bound_cache_hits if self.resolver_stats else 0

    @property
    def vectorized_batches(self) -> int:
        """Multi-pair bound dispatches that hit a provider's array kernel."""
        return self.resolver_stats.vectorized_batches if self.resolver_stats else 0

    @property
    def dijkstra_runs(self) -> int:
        """Shortest-path trees computed by SPLUB-style providers."""
        return self.resolver_stats.dijkstra_runs if self.resolver_stats else 0

    @property
    def weak_calls(self) -> int:
        """Charged weak-tier (banded estimate) calls; 0 in strong-only runs."""
        return self.resolver_stats.weak_calls if self.resolver_stats else 0

    @property
    def strong_calls(self) -> int:
        """Charged strong-tier (exact) calls classified by the resolver."""
        return self.resolver_stats.strong_calls if self.resolver_stats else 0

    @property
    def weak_band(self) -> int:
        """Bound queries the weak error band strictly tightened."""
        return self.resolver_stats.weak_band if self.resolver_stats else 0

    @property
    def total_calls(self) -> int:
        """Bootstrap plus algorithm oracle calls."""
        return self.bootstrap_calls + self.algorithm_calls

    @property
    def oracle_seconds(self) -> float:
        """Simulated oracle latency for the whole run (refund-aware)."""
        if self.simulated_oracle_seconds > 0:
            return self.simulated_oracle_seconds
        return self.total_calls * self.oracle_cost_per_call

    @property
    def completion_seconds(self) -> float:
        """End-to-end virtual completion time (CPU + oracle latency)."""
        return self.cpu_seconds + self.oracle_seconds

    def completion_at(self, cost_per_call: float) -> float:
        """Completion time re-priced at a different per-call oracle cost."""
        return self.cpu_seconds + self.total_calls * cost_per_call

    def save_vs(self, baseline: "ExperimentRecord") -> float:
        """Percentage of total oracle calls saved relative to ``baseline``."""
        return percentage_save(baseline.total_calls, self.total_calls)


def percentage_save(baseline_calls: float, our_calls: float) -> float:
    """``100 · (baseline − ours) / baseline`` (0 when the baseline is 0)."""
    if baseline_calls <= 0:
        return 0.0
    return 100.0 * (baseline_calls - our_calls) / baseline_calls


def run_experiment(
    space: MetricSpace,
    algorithm: str,
    provider: str = "none",
    num_landmarks: Optional[int] = None,
    landmark_bootstrap: bool = False,
    oracle_cost: float = 0.0,
    algorithm_kwargs: Optional[Dict[str, Any]] = None,
    executor: Optional[str] = None,
    workers: int = DEFAULT_WORKERS,
    oracle_cache: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    metrics_sink: Optional[MetricsSink] = None,
    weak_oracle: Union[bool, "WeakOracle", None] = None,
    stretch: float = 1.0,
) -> ExperimentRecord:
    """Run one measurement.

    Parameters
    ----------
    space:
        The metric space (wrapped in a fresh counting oracle).
    algorithm:
        One of :data:`ALGORITHMS`.
    provider:
        Bound provider name (see :data:`~repro.harness.providers.PROVIDER_NAMES`).
    num_landmarks:
        Landmark budget for "laesa"/"tlaesa" or a Tri/SPLUB bootstrap;
        defaults to the paper's ``log2(n)``.
    landmark_bootstrap:
        When True and the provider is not itself landmark-based, run the
        paper's LAESA bootstrap first so the provider starts with ``L``
        resolved rows (the "Tri Scheme with bootstrap" configuration).
    oracle_cost:
        Simulated seconds per oracle call (virtual clock).
    algorithm_kwargs:
        Extra keyword arguments for the host algorithm (``k``, ``l``, ...).
    executor:
        ``"serial"`` or ``"threaded"`` routes resolutions through the
        batched execution pipeline (:mod:`repro.exec`); None keeps the
        classic inline path.  Outputs are identical in every mode.
    workers:
        Thread-pool size for ``executor="threaded"``.
    oracle_cache:
        Path to a persistent distance cache (``":memory:"`` or a SQLite
        file); implies the pipeline even when ``executor`` is None.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` to observe the
        run through.  The oracle, resolver, graph, and (when batching) the
        executor publish into it; its snapshot lands on
        ``ExperimentRecord.metrics``.  Outputs are identical either way.
    metrics_sink:
        Optional :class:`~repro.obs.sinks.MetricsSink`; ``export`` is called
        once with the final snapshot.  A private registry is created when a
        sink is given without a registry.
    weak_oracle:
        ``True`` asks the space for its native weak tier
        (:meth:`~repro.spaces.base.BaseSpace.weak_oracle`; error when it
        has none), a :class:`~repro.core.tiering.WeakOracle` instance is
        used as given.  The weak tier wraps the configured provider in a
        base ∩ weak intersection — results stay byte-identical; only the
        strong-call count drops.
    stretch:
        Approximation budget for the resolver (default ``1.0`` — exact).
        Above 1, distances whose bound interval certifies ``ub <= stretch ·
        lb`` are answered with the upper bound without charging the oracle;
        see :class:`~repro.core.resolver.SmartResolver`.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}")
    oracle = space.oracle(cost_per_call=oracle_cost)
    if registry is None and metrics_sink is not None:
        registry = MetricsRegistry()
    batcher = None
    if executor is not None or oracle_cache is not None:
        batcher = BatchOracle(
            oracle,
            executor=make_executor(executor or "serial", workers=workers),
            cache=open_cache(oracle_cache),
        )
        batcher.preload()
    tiered: Optional[TieredOracle] = None
    if weak_oracle is True:
        weak = getattr(space, "weak_oracle", lambda: None)()
        if weak is None:
            raise ValueError(
                f"{type(space).__name__} declares no native weak oracle; "
                "pass a WeakOracle instance instead"
            )
        tiered = TieredOracle(oracle, weak)
    elif weak_oracle:
        tiered = TieredOracle(oracle, weak_oracle)
    resolver = SmartResolver(oracle, batcher=batcher, registry=registry, stretch=stretch)
    if registry is not None:
        oracle_call_counter(registry, oracle)
        resolver.graph.instrument(registry)
        if batcher is not None:
            batcher.instrument(registry)
        if tiered is not None:
            tiered.instrument(registry)
    try:
        max_distance = space.diameter_bound()
        _, bootstrap_calls = attach_provider(
            resolver, provider, max_distance, num_landmarks, bootstrap=True
        )
        if tiered is not None:
            # Weak intervals intersect the configured provider's bounds —
            # the weak tier composes with any scheme, including "none".
            tiered.attach(resolver, max_distance)
        if landmark_bootstrap and provider.lower() not in LANDMARK_PROVIDERS:
            count = num_landmarks or default_num_landmarks(oracle.n)
            before = oracle.calls
            bootstrap_with_landmarks(resolver, count)
            bootstrap_calls += oracle.calls - before

        start_calls = oracle.calls
        start = time.perf_counter()
        result = ALGORITHMS[algorithm](resolver, **(algorithm_kwargs or {}))
        cpu_seconds = time.perf_counter() - start
    finally:
        if batcher is not None:
            batcher.close()

    resolver_stats = resolver.collect_stats()
    metrics_snapshot: Optional[Dict[str, float]] = None
    if registry is not None:
        metrics_snapshot = registry.snapshot()
        if metrics_sink is not None:
            metrics_sink.export(metrics_snapshot)

    n = oracle.n
    return ExperimentRecord(
        algorithm=algorithm,
        provider=provider,
        n=n,
        num_pairs=n * (n - 1) // 2,
        bootstrap_calls=bootstrap_calls,
        algorithm_calls=oracle.calls - start_calls,
        cpu_seconds=cpu_seconds,
        oracle_cost_per_call=oracle_cost,
        result=result,
        params=dict(algorithm_kwargs or {}),
        executor=batcher.executor.name if batcher is not None else "inline",
        oracle_retries=oracle.retries,
        oracle_timeouts=oracle.timeouts,
        simulated_oracle_seconds=oracle.simulated_seconds,
        persistent_cache_hits=batcher.cache_hits if batcher is not None else 0,
        executor_stats=batcher.executor.stats.copy() if batcher is not None else None,
        resolver_stats=resolver_stats,
        metrics=metrics_snapshot,
    )
