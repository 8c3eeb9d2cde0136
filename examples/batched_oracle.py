"""Batched, fault-tolerant oracle execution with a persistent cache.

Real oracles are remote services: calls have latency worth overlapping,
they occasionally fail or hang, and every answer is worth persisting.  This
example wires a :class:`repro.exec.BatchOracle` under a
:class:`SmartResolver` to build a kNN graph three ways:

1. serial executor — one-candidate resolution waves, so exactly the calls
   of the plain inline resolver;
2. threaded executor — same output, a fraction of the latency; its
   8-candidate waves may resolve a few pairs a finished wave would have
   pruned, at most 10% more calls;
3. threaded executor against a flaky oracle with a persistent SQLite cache
   — transient faults are retried invisibly and a second "session" replays
   from the cache for free.

Run with:  python examples/batched_oracle.py
"""

import random
import tempfile
from pathlib import Path

from repro import SmartResolver, TriScheme, knn_graph
from repro.core.oracle import DistanceOracle
from repro.datasets import sf_poi_space
from repro.exec import BatchOracle, SqliteCacheBackend, ThreadedExecutor, make_executor

N = 80
K = 4
COST = 0.2  # simulated seconds per oracle call


def build_inline(space):
    oracle = DistanceOracle(space.distance, space.n, cost_per_call=COST)
    resolver = SmartResolver(oracle)
    resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
    return knn_graph(resolver, k=K), oracle


def build(space, distance_fn, executor, cache=None):
    oracle = DistanceOracle(distance_fn, space.n, cost_per_call=COST)
    with BatchOracle(oracle, executor=executor, cache=cache) as batcher:
        batcher.preload()
        resolver = SmartResolver(oracle, batcher=batcher)
        resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
        graph = knn_graph(resolver, k=K)
    return graph, oracle, batcher


def main() -> None:
    space = sf_poi_space(n=N, seed=5, road=False)
    inline_graph, inline_oracle = build_inline(space)

    # --- 1. serial executor: the inline resolver's calls, exactly ---------
    serial_graph, serial_oracle, _ = build(
        space, space.distance, make_executor("serial")
    )
    assert serial_graph == inline_graph
    assert serial_oracle.calls == inline_oracle.calls
    print(f"serial:   {serial_oracle.calls:,} calls (= inline), "
          f"{serial_oracle.simulated_seconds:.1f}s simulated latency")

    # --- 2. threaded: identical output, overlapped latency ----------------
    threaded_graph, threaded_oracle, batcher = build(
        space, space.distance, ThreadedExecutor(workers=8)
    )
    assert all(
        threaded_graph.neighbor_ids(u) == serial_graph.neighbor_ids(u)
        for u in range(space.n)
    )
    assert threaded_oracle.calls <= 1.10 * serial_oracle.calls
    print(f"threaded: {threaded_oracle.calls:,} calls, "
          f"{threaded_oracle.simulated_seconds:.1f}s simulated latency "
          f"({batcher.executor.stats.simulated_seconds_saved:.1f}s refunded "
          f"by overlapping)")

    # --- 3. flaky oracle + retries + persistent cache ---------------------
    rng = random.Random(7)
    attempts = {}

    def flaky_distance(i, j):
        # One call in ten times out on its first attempt.
        key = (min(i, j), max(i, j))
        first = key not in attempts
        attempts[key] = True
        if first and rng.random() < 0.1:
            raise TimeoutError(f"simulated outage for {key}")
        return space.distance(i, j)

    db = Path(tempfile.gettempdir()) / "repro_batched_oracle.db"
    db.unlink(missing_ok=True)

    flaky_graph, flaky_oracle, _ = build(
        space, flaky_distance, ThreadedExecutor(workers=8),
        cache=SqliteCacheBackend(db),
    )
    assert all(
        flaky_graph.neighbor_ids(u) == serial_graph.neighbor_ids(u)
        for u in range(space.n)
    )
    print(f"flaky:    {flaky_oracle.retries} transient timeouts retried, "
          f"output still identical; {flaky_oracle.calls:,} answers "
          f"persisted to {db}")

    # A new session replays every persisted distance free of charge.
    resumed_graph, resumed_oracle, resumed_batcher = build(
        space, space.distance, ThreadedExecutor(workers=8),
        cache=SqliteCacheBackend(db),
    )
    assert all(
        resumed_graph.neighbor_ids(u) == serial_graph.neighbor_ids(u)
        for u in range(space.n)
    )
    print(f"resumed:  {resumed_batcher.preloaded:,} distances preloaded, "
          f"{resumed_oracle.calls:,} new calls, "
          f"{resumed_oracle.simulated_seconds:.1f}s simulated latency")


if __name__ == "__main__":
    main()
