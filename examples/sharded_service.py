"""Scale-out serving: 4 engine shards, one shared distance store.

This demo partitions a dataset across 4 engine processes with a
landmark-based, capacity-balanced plan (`plan_shards`), pools every
resolved edge in a shared-memory CSR store, and shows the scale-out
guarantees in action:

1. **Scatter-gather exactness** — the 4-shard answer to every query is
   identical to a single-process engine's answer.
2. **Cross-query reuse still works sharded** — a repeated query charges
   zero new oracle calls, because each shard keeps its warm graph.
3. **Per-shard observability** — the merged registry labels every engine
   metric with ``shard="k"``, and ``stats()`` reports per-shard and
   aggregate counters.

It finishes by putting the sharded engine behind the asyncio front-end on
an ephemeral TCP port — the same deployment `repro serve --shards 4
--transport tcp` gives you.

Run with:  python examples/sharded_service.py
"""

from repro.datasets import sf_poi_space
from repro.service import (
    AsyncProximityServer,
    ProximityEngine,
    ShardedEngine,
    send_request,
)
from repro.service.jobs import JobSpec
from repro.spaces.handles import handle_for

N = 96
SHARDS = 4


def main() -> None:
    # A handle is a picklable recipe for the space — each shard process
    # rebuilds (and memoises) the dataset from it.
    handle = handle_for(sf_poi_space, n=N, seed=5, road=False)
    workload = [
        JobSpec(kind="knn", params={"query": q, "k": 5}) for q in (3, 17, 40, 88)
    ] + [JobSpec(kind="range", params={"query": 9, "radius": 0.12})]

    with ShardedEngine(handle, num_shards=SHARDS, provider="tri") as engine:
        sizes = [len(region) for region in engine.plan.regions]
        print(f"{SHARDS} shards over n={N}; region sizes {sizes} "
              f"(capacity-balanced), plan digest {engine.plan.digest}")

        answers = [engine.run(spec) for spec in workload]
        for spec, result in zip(workload, answers):
            print(f"{spec.kind:>6} {spec.params.get('query'):>3}: "
                  f"{result.status.value}, charged {result.charged_calls} calls")

        # 1. Exactness: a single-process engine must agree on every answer.
        with ProximityEngine.for_space(
            handle.space(), provider="tri", job_workers=1
        ) as reference:
            for spec, result in zip(workload, answers):
                assert reference.run(spec).value == result.value
        print("all answers identical to a single-process engine")

        # 2. Reuse: replaying a query is free on a warm sharded engine too.
        again = engine.run(workload[0])
        assert again.charged_calls == 0
        print(f"repeat {workload[0].kind}: charged {again.charged_calls} calls")

        # 3. Observability: aggregate + per-shard labelled series.
        aggregate = engine.stats()["aggregate"]
        print(f"aggregate: {aggregate['oracle_calls']:,} oracle calls, "
              f"{engine.store.num_edges:,} pooled edges in the shared store")
        labelled = [
            line for line in engine.render_metrics().splitlines()
            if 'shard="2"' in line and line.startswith("repro_oracle_calls_total")
        ]
        print(f"scrape sample: {labelled[0]}")

        # --- the same engine behind the asyncio TCP front-end --------------
        with AsyncProximityServer(engine, host="127.0.0.1", port=0) as server:
            target = f"127.0.0.1:{server.port}"
            stats = send_request(target, {"op": "stats"})["stats"]
            print(f"served stats over tcp at {target}: "
                  f"sharded={stats['sharded']}, shards={len(stats['shards'])}")

    print("4 processes, one shared store, zero answer drift")


if __name__ == "__main__":
    main()
