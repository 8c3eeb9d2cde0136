"""Figure 9 (engine view) — bound-computation CPU: loop vs vectorized kernels.

Two ablations of the bound engine, both output-identical by construction:

* **Tri**: the per-triangle Python loop vs the batched ``bounds_many``
  path (the CSR frontier sweep for these shared-endpoint frontiers).  Same
  bounds, same oracle calls; only bound CPU moves (≥3x at n=400 with
  warmed adjacency).
* **SPLUB**: two fresh Dijkstras per query vs per-source trees memoised on
  the graph epoch.  A ``knearest(q, ·)`` frontier pays one tree for ``q``
  instead of one per pair.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.algorithms import knn_graph
from repro.bounds import tri as tri_module
from repro.bounds.splub import Splub
from repro.bounds.tri import TriScheme
from repro.core.resolver import SmartResolver
from repro.spaces.vector import EuclideanSpace

N_TRI = 400
DEGREE = 100
N_SPLUB = 90


def _warmed_space_and_edges(n: int, degree: int, seed: int = 7):
    """Random Euclidean space plus a random edge sample of target degree."""
    rng = np.random.default_rng(seed)
    space = EuclideanSpace(rng.uniform(0.0, 1.0, size=(n, 2)))
    edges = set()
    while len(edges) < n * degree // 2:
        i, j = rng.integers(n, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return space, sorted(edges)


def _warm_resolver(space, edges, provider_cls, **provider_kwargs):
    resolver = SmartResolver(space.oracle())
    provider = provider_cls(resolver.graph, space.diameter_bound(), **provider_kwargs)
    resolver.bounder = provider
    for i, j in edges:
        resolver.distance(int(i), int(j))
    return resolver, provider


def test_tri_vectorized_kernel_speedup(benchmark, report):
    """Frontier workload (the shape knearest/argmin issue): loop vs batch."""
    space, edges = _warmed_space_and_edges(N_TRI, DEGREE)
    resolver, tri = _warm_resolver(space, edges, TriScheme)
    graph = resolver.graph
    rng = np.random.default_rng(11)
    frontiers = []
    for u in rng.choice(N_TRI, size=40, replace=False).tolist():
        pool = [c for c in range(N_TRI) if c != u and graph.get(u, c) is None]
        frontiers.append([(u, c) for c in pool])

    start = time.perf_counter()
    loop_bounds = [[tri._bounds_loop(i, j) for i, j in f] for f in frontiers]
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vector_bounds = [tri.bounds_many(f) for f in frontiers]
    vector_seconds = time.perf_counter() - start

    assert loop_bounds == vector_bounds  # bit-identical intervals
    num_queries = sum(len(f) for f in frontiers)
    speedup = loop_seconds / vector_seconds
    report(
        f"Fig 9 (bound engine): Tri kernels on n={N_TRI}, degree≈{DEGREE}, "
        f"{len(frontiers)} frontiers / {num_queries} pairs\n"
        f"  loop       {loop_seconds * 1e3:8.1f} ms\n"
        f"  vectorized {vector_seconds * 1e3:8.1f} ms   ({speedup:.1f}x)"
    )
    assert speedup >= 3.0

    benchmark.pedantic(lambda: tri.bounds_many(frontiers[0]), rounds=3, iterations=1)


def test_tri_kernels_identical_oracle_calls(report, monkeypatch):
    """kNN-graph under scalar-only vs vector-only Tri: identical everything."""
    rng = np.random.default_rng(3)
    space = EuclideanSpace(rng.uniform(0.0, 1.0, size=(150, 2)))
    outcomes = {}
    # "scalar" answers every pair with the loop; "vector" sends every
    # per-pair query to the array kernel and keeps the frontier sweep.
    for label, min_degree, min_pairs in (
        ("scalar", math.inf, math.inf),
        ("vector", 0, tri_module._FRONTIER_MIN_PAIRS),
    ):
        monkeypatch.setattr(tri_module, "_VECTOR_MIN_DEGREE", min_degree)
        monkeypatch.setattr(tri_module, "_FRONTIER_MIN_PAIRS", min_pairs)
        oracle = space.oracle()
        resolver = SmartResolver(oracle)
        resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
        result = knn_graph(resolver, k=5)
        outcomes[label] = (result.neighbors, oracle.calls)
    assert outcomes["scalar"][0] == outcomes["vector"][0]
    assert outcomes["scalar"][1] == outcomes["vector"][1]
    report(
        "Fig 9 (bound engine): kNNG n=150 k=5 — scalar vs vector Tri: "
        f"identical neighbours, identical {outcomes['scalar'][1]} oracle calls"
    )


def test_splub_incremental_trees(benchmark, report):
    """Per-query Dijkstras vs epoch-cached trees on a kNN workload."""
    space, edges = _warmed_space_and_edges(N_SPLUB, 12, seed=5)
    runs = {}
    outputs = {}
    timings = {}
    for label, cache in (("per-query", False), ("incremental", True)):
        resolver, splub = _warm_resolver(
            space, edges, Splub, cache_trees=cache
        )
        oracle = resolver.oracle
        calls_before = oracle.calls
        start = time.perf_counter()
        result = [
            resolver.knearest(q, range(N_SPLUB), k=3) for q in range(0, N_SPLUB, 6)
        ]
        timings[label] = time.perf_counter() - start
        outputs[label] = (result, oracle.calls - calls_before)
        runs[label] = splub.dijkstra_runs
    assert outputs["per-query"] == outputs["incremental"]
    assert runs["incremental"] * 2 <= runs["per-query"]
    report(
        f"Fig 9 (bound engine): SPLUB kNN workload on n={N_SPLUB}\n"
        f"  per-query   {runs['per-query']:6d} dijkstras "
        f"{timings['per-query'] * 1e3:8.1f} ms\n"
        f"  incremental {runs['incremental']:6d} dijkstras "
        f"{timings['incremental'] * 1e3:8.1f} ms "
        f"({runs['per-query'] / max(runs['incremental'], 1):.1f}x fewer trees)"
    )

    resolver, _ = _warm_resolver(space, edges, Splub, cache_trees=True)
    benchmark.pedantic(
        lambda: [resolver.knearest(q, range(N_SPLUB), k=3) for q in range(0, N_SPLUB, 30)],
        rounds=1,
        iterations=1,
    )
