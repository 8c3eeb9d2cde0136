"""Command-line interface: run any algorithm × provider × dataset matrix.

Examples
--------
Compare all schemes on Prim's over SF-like data::

    python -m repro run --dataset sf --n 150 --algorithm prim \
        --providers none tri laesa tlaesa

Sweep dataset sizes for the kNN-graph builder::

    python -m repro sweep --dataset urbangb --sizes 50 100 150 \
        --algorithm knng --k 5 --providers tri laesa

Inspect a provider's bound quality::

    python -m repro bounds --dataset sf --n 150 --edges 2500
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List

from repro.datasets import flickr_space, sf_poi_space, urbangb_space
from repro.harness import (
    PROVIDER_NAMES,
    bounds_quality_experiment,
    percentage_save,
    print_table,
    run_experiment,
)

# (factory, fixed kwargs) per dataset name.  The factories are module-level
# functions, so the resulting SpaceHandle pickles by reference — which is
# what lets shard subprocesses and oracle worker processes rebuild the same
# space without shipping distance matrices around.
DATASET_BUILDERS = {
    "sf": (sf_poi_space, {}),
    "sf-euclid": (sf_poi_space, {"road": False}),
    "urbangb": (urbangb_space, {}),
    "urbangb-euclid": (urbangb_space, {"road": False}),
    "flickr": (flickr_space, {}),
}

DATASETS = {
    name: (lambda n, seed, _f=factory, _kw=extra: _f(n, seed=seed, **_kw))
    for name, (factory, extra) in DATASET_BUILDERS.items()
}


def dataset_handle(name: str, n: int, seed: int):
    """A picklable :class:`~repro.spaces.handles.SpaceHandle` for a dataset."""
    from repro.spaces.handles import handle_for

    factory, extra = DATASET_BUILDERS[name]
    return handle_for(factory, n, seed=seed, **extra)

ALGORITHM_PARAMS = {
    "knng": ("k",),
    "knng-brute": ("k",),
    "pam": ("l", "seed"),
    "clarans": ("l", "seed"),
    "kcenter": ("k",),
    "dbscan": ("eps", "min_pts"),
}


def _workers_arg(value: str) -> int:
    """argparse type for ``--workers``: a positive thread count."""
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1 (got {workers}); a thread pool needs a thread"
        )
    return workers


def _cache_path_arg(value: str) -> str:
    """argparse type for ``--oracle-cache``: ':memory:' or a writable path."""
    if value == ":memory:":
        return value
    parent = os.path.dirname(os.path.abspath(value))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"parent directory {parent!r} does not exist — create it first, "
            "or use ':memory:' for a non-persistent cache"
        )
    return value


def _param_arg(value: str) -> tuple:
    """argparse type for ``--param key=value`` job parameters."""
    key, sep, raw = value.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {value!r} (e.g. --param query=3)"
        )
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    return key, raw


def _build_space(args):
    return DATASETS[args.dataset](args.n, args.seed)


def _algorithm_kwargs(args) -> dict:
    kwargs = {}
    for name in ALGORITHM_PARAMS.get(args.algorithm, ()):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    return kwargs


def _cmd_run(args) -> int:
    space = _build_space(args)
    kwargs = _algorithm_kwargs(args)
    rows = []
    baseline_calls = None
    for provider in args.providers:
        record = run_experiment(
            space,
            args.algorithm,
            provider,
            landmark_bootstrap=args.bootstrap and provider == "tri",
            oracle_cost=args.oracle_cost,
            algorithm_kwargs=kwargs,
            executor=args.executor,
            workers=args.workers,
            oracle_cache=args.oracle_cache,
            weak_oracle=args.weak_oracle,
            stretch=args.stretch,
        )
        if baseline_calls is None:
            baseline_calls = record.total_calls
        rows.append(
            [
                provider,
                record.bootstrap_calls,
                record.algorithm_calls,
                record.total_calls,
                round(percentage_save(baseline_calls, record.total_calls), 1),
                round(record.cpu_seconds, 3),
                round(record.completion_seconds, 2),
                round(record.bound_time_s * 1e3, 1),
                record.bound_cache_hits,
                record.vectorized_batches,
                record.dijkstra_runs,
                record.weak_calls,
            ]
        )
    print_table(
        ["provider", "bootstrap", "algorithm", "total", "save% vs first",
         "cpu (s)", "completion (s)", "bound (ms)", "bound hits",
         "vec batches", "dijkstras", "weak calls"],
        rows,
        title=f"{args.algorithm} on {args.dataset} (n={args.n}, "
        f"oracle={args.oracle_cost}s/call, "
        f"executor={args.executor or 'inline'})",
    )
    return 0


def _cmd_sweep(args) -> int:
    kwargs = _algorithm_kwargs(args)
    rows = []
    for n in args.sizes:
        space = DATASETS[args.dataset](n, args.seed)
        row: List = [n]
        for provider in args.providers:
            record = run_experiment(
                space,
                args.algorithm,
                provider,
                landmark_bootstrap=args.bootstrap and provider == "tri",
                algorithm_kwargs=kwargs,
                executor=args.executor,
                workers=args.workers,
                oracle_cache=args.oracle_cache,
                weak_oracle=args.weak_oracle,
            )
            row.append(record.total_calls)
        rows.append(row)
    print_table(
        ["n", *args.providers],
        rows,
        title=f"{args.algorithm} total oracle calls on {args.dataset}",
    )
    return 0


def _cmd_bounds(args) -> int:
    space = _build_space(args)
    results = bounds_quality_experiment(
        space,
        num_edges=args.edges,
        num_queries=args.queries,
        providers=tuple(args.providers),
    )
    print_table(
        ["provider", "mean LB", "mean UB", "gap", "rel err LB", "rel err UB",
         "query (µs)", "update (ms)"],
        [
            [
                r.provider,
                round(r.mean_lower, 4),
                round(r.mean_upper, 4),
                round(r.mean_gap, 4),
                round(r.rel_err_lower_vs_adm, 5),
                round(r.rel_err_upper_vs_adm, 5),
                round(r.mean_query_seconds * 1e6, 1),
                round(r.update_seconds * 1e3, 2),
            ]
            for r in results
        ],
        title=f"bound quality on {args.dataset} (n={args.n}, m={args.edges})",
    )
    return 0


def _cmd_indexes(args) -> int:
    """Framework vs classic metric indexes on an NN-query workload."""
    import numpy as np

    from repro.algorithms.queries import nearest_neighbor
    from repro.bounds import TriScheme
    from repro.core.resolver import SmartResolver
    from repro.index import Gnat, MTree, VpTree

    space = _build_space(args)
    rng = np.random.default_rng(args.seed)
    queries = [int(q) for q in rng.integers(space.n, size=args.queries)]

    rows = []
    oracle = space.oracle()
    resolver = SmartResolver(oracle)
    resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
    for q in queries:
        nearest_neighbor(resolver, q)
    rows.append(["framework (Tri)", 0, oracle.calls, oracle.calls])

    for label, factory in (
        ("VP-tree", lambda o: VpTree(o, rng=np.random.default_rng(0))),
        ("M-tree", lambda o: MTree(o, rng=np.random.default_rng(0))),
        ("GNAT", lambda o: Gnat(o, rng=np.random.default_rng(0))),
    ):
        oracle = space.oracle()
        index = factory(oracle)
        build = index.construction_calls
        for q in queries:
            index.nearest(q)
        rows.append([label, build, oracle.calls - build, oracle.calls])

    print_table(
        ["approach", "build calls", "query calls", "total"],
        rows,
        title=f"{args.queries} NN queries on {args.dataset} (n={args.n})",
    )
    return 0


def _cmd_serve(args) -> int:
    """Run a persistent proximity engine behind a local or TCP socket."""
    from repro.service import AsyncProximityServer, ProximityEngine

    if args.transport == "unix" and not args.socket:
        print("error: --transport unix requires --socket", file=sys.stderr)
        return 2
    if args.transport == "tcp" and args.port is None:
        print("error: --transport tcp requires --port", file=sys.stderr)
        return 2

    sharded = args.shards > 1
    if sharded:
        from repro.service import ShardedEngine

        if args.snapshot_path or args.snapshot_every:
            print(
                "error: --snapshot-path/--snapshot-every are not supported "
                "with --shards > 1 (use the snapshot op against the running "
                "coordinator instead)",
                file=sys.stderr,
            )
            return 2
        engine = ShardedEngine(
            dataset_handle(args.dataset, args.n, args.seed),
            num_shards=args.shards,
            provider=args.provider,
            dynamic=args.mutations,
        )
        if args.restore_from:
            engine.restore(args.restore_from)
        n = engine.n
    else:
        space = _build_space(args)
        if args.mutations:
            from repro.dynamic import DynamicObjectSet

            space = DynamicObjectSet.wrap(space)
        engine = ProximityEngine.for_space(
            space,
            provider=args.provider,
            job_workers=args.job_workers,
            snapshot_path=args.snapshot_path,
            snapshot_every=args.snapshot_every,
            restore_from=args.restore_from,
            weak_oracle=args.weak_oracle,
        )
        n = space.n

    server = AsyncProximityServer(
        engine,
        socket_path=args.socket if args.transport == "unix" else None,
        host=args.host,
        port=args.port if args.transport == "tcp" else None,
    ).start()
    where = (
        f"{args.host or '127.0.0.1'}:{server.port}"
        if args.transport == "tcp"
        else args.socket
    )
    shard_note = f", shards={args.shards}" if sharded else ""
    print(
        f"serving {args.dataset} (n={n}, provider={args.provider}"
        f"{shard_note}) on {args.transport} {where}"
    )
    try:
        if args.serve_seconds is not None:
            time.sleep(args.serve_seconds)
        else:  # pragma: no cover - interactive path
            server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.close()
        engine.close()
    if sharded:
        agg = engine.last_stats or {}
        print(
            f"served {agg.get('jobs_submitted', 0)} jobs, "
            f"{agg.get('oracle_calls', 0)} oracle calls, "
            f"{agg.get('warm_resolutions', 0)} warm resolutions "
            f"across {args.shards} shards"
        )
    else:
        stats = engine.snapshot_stats()
        print(
            f"served {stats.jobs_submitted} jobs, {stats.oracle_calls} oracle "
            f"calls, {stats.warm_resolutions} warm resolutions"
        )
    return 0


def _cmd_submit(args) -> int:
    """Send one request to a running ``repro serve`` engine."""
    from repro.service.server import send_request

    if args.stats:
        request = {"op": "stats"}
    elif args.insert is not None:
        request = {"op": "insert", "payload": json.loads(args.insert)}
    elif args.remove is not None:
        request = {"op": "remove", "id": args.remove}
    elif args.subscribe is not None:
        request = {"op": "subscribe", "kind": args.subscribe}
        request.update(dict(args.param))
    elif args.deltas is not None:
        request = {"op": "deltas", "sub_id": args.deltas, "since": args.since}
    elif args.kind is None:
        print(
            "error: one of --kind/--stats/--insert/--remove/--subscribe/"
            "--deltas is required",
            file=sys.stderr,
        )
        return 2
    else:
        request = {
            "op": "submit",
            "spec": {
                "kind": args.kind,
                "params": dict(args.param),
                "priority": args.priority,
                "oracle_budget": args.budget,
                "deadline": args.deadline,
                "label": args.label,
                "stretch": args.stretch,
            },
        }
    response = send_request(args.socket, request, timeout=args.timeout)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def _cmd_stats(args) -> int:
    """Inspect a running engine: readable stats or a raw metrics snapshot."""
    from repro.service.server import send_request

    if args.snapshot:
        response = send_request(args.socket, {"op": "metrics"}, timeout=args.timeout)
        if not response.get("ok"):
            print(json.dumps(response, indent=2, sort_keys=True), file=sys.stderr)
            return 1
        print(response["metrics"], end="")
        return 0
    response = send_request(args.socket, {"op": "stats"}, timeout=args.timeout)
    if not response.get("ok"):
        print(json.dumps(response, indent=2, sort_keys=True), file=sys.stderr)
        return 1
    stats = response["stats"]
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    if stats.get("sharded"):
        rows = [
            [key, stats[key]]
            for key in sorted(stats)
            if key not in ("shards", "aggregate", "plan", "store", "sharded")
        ]
        aggregate = stats.get("aggregate", {})
        rows += [[f"aggregate.{key}", aggregate[key]] for key in sorted(aggregate)]
        for shard_row in stats.get("shards", []):
            prefix = f"shard{shard_row.get('shard', '?')}"
            for key in ("jobs_submitted", "oracle_calls", "warm_resolutions",
                        "graph_edges", "mutations_applied",
                        "subscriptions_active"):
                if key in shard_row:
                    rows.append([f"{prefix}.{key}", shard_row[key]])
        print_table(
            ["stat", "value"], rows, title=f"sharded stats ({args.socket})"
        )
        return 0
    resolver = stats.pop("resolver", {})
    rows = [[key, stats[key]] for key in sorted(stats)]
    rows += [[f"resolver.{key}", resolver[key]] for key in sorted(resolver)]
    print_table(["stat", "value"], rows, title=f"engine stats ({args.socket})")
    return 0


def _cmd_churn(args) -> int:
    """Churn harness: a warm engine absorbs mutation batches in place."""
    from repro.dynamic import DynamicObjectSet, churn_batch
    from repro.service import ProximityEngine

    base = _build_space(args)
    # Hold back a reserve of ids so inserts bring genuinely new objects
    # (exhausted reserve falls back to recycling removed payloads).
    per_batch = max(1, int(round(args.fraction * args.n / 2)))
    reserve = min(args.batches * per_batch, base.n // 2)
    objects = DynamicObjectSet.wrap(base, initial=base.n - reserve)
    reserve_payloads = list(range(base.n - reserve, base.n))
    engine = ProximityEngine.for_space(
        objects, provider=args.provider, job_workers=1
    )
    sub = engine.subscribe_knng(args.k)
    build_calls = engine.oracle.calls
    maintain_calls = 0
    seen_seq = sub.seq
    rows = []
    for batch_no in range(args.batches):
        count = min(
            max(1, int(round(args.fraction * objects.num_alive / 2))),
            objects.num_alive - 1,
        )
        fresh_ids = reserve_payloads[:count]
        del reserve_payloads[:count]
        batch = churn_batch(
            objects,
            fraction=args.fraction,
            seed=args.seed + batch_no,
            insert_payloads=fresh_ids if len(fresh_ids) == count else None,
        )
        result = engine.apply_mutations(batch)
        deltas = engine.subscription_deltas(sub.sub_id, since=seen_seq)
        if deltas:
            seen_seq = deltas[-1].seq
        maintain_calls += result.strong_calls
        rows.append([
            batch_no,
            len(result.removed_ids),
            len(result.inserted_ids),
            result.strong_calls,
            result.edges_dropped,
            sum(len(d.entered) for d in deltas),
            sum(len(d.left) for d in deltas),
        ])
    standing = engine.subscriptions.get(sub.sub_id).result
    alive = objects.alive_ids()

    # Price the same standing result built cold on the final object set.
    fresh_objects = DynamicObjectSet(
        [objects.payload(i) for i in alive],
        lambda a, b: base.distance(a, b),
        diameter=base.diameter_bound(),
    )
    fresh = ProximityEngine.for_space(
        fresh_objects, provider=args.provider, job_workers=1
    )
    fresh_sub = fresh.subscribe_knng(args.k)
    rebuild_calls = fresh.oracle.calls
    fresh_rows = fresh.subscriptions.get(fresh_sub.sub_id).result
    pos = {slot: p for p, slot in enumerate(alive)}
    matches = all(
        sorted((d, pos[v]) for d, v in standing[u])
        == sorted(fresh_rows[pos[u]])
        for u in alive
    )
    fresh.close(snapshot=False)
    engine.close(snapshot=False)

    print_table(
        ["batch", "removed", "inserted", "strong", "edges dropped",
         "entered", "left"],
        rows,
        title=(
            f"churn: {args.dataset} n={args.n} provider={args.provider} "
            f"k={args.k} fraction={args.fraction}"
        ),
    )
    savings = rebuild_calls / maintain_calls if maintain_calls else float("inf")
    print(
        f"initial build: {build_calls} strong calls; maintenance across "
        f"{args.batches} batches: {maintain_calls}; cold rebuild of the "
        f"final standing result: {rebuild_calls} ({savings:.1f}x savings)"
    )
    print(f"standing kNN-graph matches a from-scratch rebuild: {matches}")
    return 0


def _cmd_build_index(args) -> int:
    """Navigable-graph construction: offline savings report, or a remote job.

    Without ``--socket``, builds the chosen graph twice — once naively and
    once through a bound-equipped resolver — and reports the strong-call
    savings, whether the two graphs are byte-identical, and search recall.
    With ``--socket``, submits a ``build_index`` job to a running engine.
    """
    if args.socket:
        from repro.service.server import send_request

        params = dict(args.param)
        params.setdefault("graph", args.graph)
        if args.graph == "hnsw":
            params.setdefault("m", args.m)
            params.setdefault("ef", args.ef)
        else:
            params.setdefault("r", args.r)
            params.setdefault("k", args.pool)
        if args.name:
            params.setdefault("name", args.name)
        response = send_request(
            args.socket,
            {"op": "build_index", "graph": args.graph, "params": params},
            timeout=args.timeout,
        )
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("ok") else 1

    import numpy as np

    from repro.bounds import TriScheme
    from repro.core.oracle import ComparisonOracle
    from repro.core.resolver import SmartResolver
    from repro.graphs import (
        build_hnsw,
        build_nsg,
        comparison_search,
        evaluate_recall,
        graph_search,
    )
    from repro.graphs.naive import DirectResolver

    space = _build_space(args)
    if args.graph == "hnsw":
        kwargs = {"m": args.m, "ef_construction": args.ef, "seed": args.seed}
        builder = build_hnsw
    else:
        kwargs = {"r": args.r, "k": args.pool}
        builder = build_nsg

    rows = []
    graphs = {}
    for label in ("naive", "smart"):
        oracle = space.oracle()
        if label == "naive":
            resolver = DirectResolver(oracle)
        else:
            resolver = SmartResolver(oracle)
            resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
        start = time.perf_counter()
        graphs[label] = builder(resolver, **kwargs)
        elapsed = time.perf_counter() - start
        rows.append([label, oracle.calls, graphs[label].num_edges,
                     round(elapsed, 3)])
    print_table(
        ["builder", "strong calls", "edges", "seconds"],
        rows,
        title=(
            f"{args.graph} construction: {args.dataset} n={space.n} "
            f"params={kwargs}"
        ),
    )
    naive_calls, smart_calls = rows[0][1], rows[1][1]
    savings = naive_calls / smart_calls if smart_calls else float("inf")
    identical = (
        graphs["naive"].edges_signature() == graphs["smart"].edges_signature()
    )
    print(f"oracle savings: {savings:.2f}x; byte-identical graphs: {identical}")

    rng = np.random.default_rng(args.seed)
    queries = [int(q) for q in rng.integers(space.n, size=args.queries)]
    oracle = space.oracle()
    resolver = SmartResolver(oracle)
    resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
    report = evaluate_recall(
        resolver, graphs["smart"], queries, args.k,
        distance_fn=space.distance,
    )
    print(f"recall@{args.k} over {args.queries} queries: "
          f"{report['recall']:.3f}")
    comparison = ComparisonOracle(resolver)
    agree = sum(
        1 for q in queries
        if comparison_search(comparison, graphs["smart"], q, args.k)
        == [v for _, v in graph_search(resolver, graphs["smart"], q, args.k)]
    )
    print(f"comparison-only search agreed on {agree}/{len(queries)} queries "
          f"({comparison.comparisons} ordering calls, never a number)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reducing expensive distance calls for proximity problems "
        "(SIGMOD 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algorithms=True):
        p.add_argument("--dataset", choices=sorted(DATASETS), default="sf")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument(
            "--providers", nargs="+", default=["none", "tri", "laesa", "tlaesa"],
            choices=list(PROVIDER_NAMES),
        )
        if algorithms:
            p.add_argument(
                "--algorithm",
                default="prim",
                choices=["prim", "prim-cmp", "kruskal", "knng", "knng-brute",
                         "pam", "clarans", "kcenter", "linkage", "nn-tour",
                         "dbscan"],
            )
            p.add_argument("--k", type=int, default=None, help="k for knng/kcenter")
            p.add_argument("--l", type=int, default=None, help="clusters for pam/clarans")
            p.add_argument("--eps", type=float, default=None, help="radius for dbscan")
            p.add_argument("--min-pts", dest="min_pts", type=int, default=None,
                           help="core threshold for dbscan")
            p.add_argument("--bootstrap", action="store_true",
                           help="LAESA-bootstrap the Tri Scheme")
            p.add_argument("--executor", choices=["serial", "threaded"],
                           default=None,
                           help="route resolutions through the batched "
                           "execution pipeline (outputs are identical)")
            p.add_argument("--workers", type=_workers_arg, default=8,
                           help="thread-pool size for --executor threaded")
            p.add_argument("--oracle-cache", dest="oracle_cache",
                           type=_cache_path_arg, default=None,
                           help="persistent distance cache (':memory:' or a "
                           "SQLite file path); repeated runs never re-pay")
            p.add_argument("--weak-oracle", dest="weak_oracle",
                           action="store_true",
                           help="use the space's native weak (banded "
                           "estimate) oracle to tighten bounds; outputs "
                           "are identical, strong calls drop")
            p.add_argument("--stretch", type=float, default=1.0,
                           help="approximation budget >= 1.0; answers may "
                           "be bounded-stretch estimates (1.0 = exact, "
                           "the default)")

    run_p = sub.add_parser("run", help="one dataset size, many providers")
    common(run_p)
    run_p.add_argument("--n", type=int, default=100)
    run_p.add_argument("--oracle-cost", type=float, default=0.0,
                       help="simulated seconds per oracle call")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep dataset sizes")
    common(sweep_p)
    sweep_p.add_argument("--sizes", nargs="+", type=int, required=True)
    sweep_p.set_defaults(func=_cmd_sweep)

    bounds_p = sub.add_parser("bounds", help="bound-quality comparison")
    common(bounds_p, algorithms=False)
    bounds_p.add_argument("--n", type=int, default=150)
    bounds_p.add_argument("--edges", type=int, default=2000)
    bounds_p.add_argument("--queries", type=int, default=200)
    bounds_p.set_defaults(
        func=_cmd_bounds,
    )
    bounds_p.set_defaults(providers=["splub", "tri", "laesa", "tlaesa", "adm"])

    indexes_p = sub.add_parser(
        "indexes", help="framework vs VP-tree/M-tree/GNAT on NN queries"
    )
    indexes_p.add_argument("--dataset", choices=sorted(DATASETS), default="sf")
    indexes_p.add_argument("--seed", type=int, default=7)
    indexes_p.add_argument("--n", type=int, default=150)
    indexes_p.add_argument("--queries", type=int, default=30)
    indexes_p.set_defaults(func=_cmd_indexes)

    serve_p = sub.add_parser(
        "serve", help="persistent proximity engine behind a local socket"
    )
    serve_p.add_argument("--dataset", choices=sorted(DATASETS), default="sf")
    serve_p.add_argument("--n", type=int, default=100)
    serve_p.add_argument("--seed", type=int, default=7)
    serve_p.add_argument("--provider", choices=list(PROVIDER_NAMES), default="tri")
    serve_p.add_argument("--weak-oracle", dest="weak_oracle", action="store_true",
                         help="compose the space's native weak oracle into "
                         "the engine's bound provider (answers unchanged)")
    serve_p.add_argument("--job-workers", dest="job_workers", type=_workers_arg,
                         default=2, help="concurrent query-job workers")
    serve_p.add_argument("--transport", choices=["unix", "tcp"], default="unix",
                         help="listen on a unix socket (default) or TCP")
    serve_p.add_argument("--socket", default=None,
                         help="unix socket path to listen on "
                         "(required for --transport unix)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address for --transport tcp")
    serve_p.add_argument("--port", type=int, default=None,
                         help="TCP port for --transport tcp (0 = ephemeral, "
                         "printed at startup)")
    serve_p.add_argument("--shards", type=_workers_arg, default=1,
                         help="partition the dataset across this many "
                         "shard processes sharing one resolved-edge store")
    serve_p.add_argument("--snapshot-path", dest="snapshot_path",
                         type=_cache_path_arg, default=None,
                         help="warm-state snapshot file (written periodically "
                         "and on shutdown)")
    serve_p.add_argument("--snapshot-every", dest="snapshot_every", type=int,
                         default=None,
                         help="snapshot after this many new resolved edges")
    serve_p.add_argument("--restore-from", dest="restore_from", default=None,
                         help="seed the engine from a previous snapshot")
    serve_p.add_argument("--serve-seconds", dest="serve_seconds", type=float,
                         default=None,
                         help="serve for a fixed time then exit "
                         "(default: until interrupted)")
    serve_p.add_argument("--mutations", action="store_true",
                         help="serve a mutable object set: enables the "
                         "insert/remove/subscribe/deltas verbs")
    serve_p.set_defaults(func=_cmd_serve)

    submit_p = sub.add_parser(
        "submit", help="send one query job to a running 'repro serve' engine"
    )
    submit_p.add_argument("--socket", "--target", dest="socket", required=True,
                          metavar="TARGET",
                          help="unix socket path or host:port of the "
                          "running engine")
    submit_p.add_argument("--kind", default=None,
                          choices=["knn", "range", "nearest", "medoid",
                                   "build_index", "search_index",
                                   "knng", "mst"])
    submit_p.add_argument("--param", action="append", type=_param_arg,
                          default=[], metavar="KEY=VALUE",
                          help="job parameter (repeatable), e.g. "
                          "--param query=3 --param k=5")
    submit_p.add_argument("--priority", type=int, default=0)
    submit_p.add_argument("--budget", type=int, default=None,
                          help="max charged oracle calls for this job")
    submit_p.add_argument("--deadline", type=float, default=None,
                          help="seconds the job may wait+run before expiring")
    submit_p.add_argument("--label", default="")
    submit_p.add_argument("--stretch", type=float, default=1.0,
                          help="approximation budget >= 1.0 for this job "
                          "(1.0 = exact)")
    submit_p.add_argument("--timeout", type=float, default=60.0,
                          help="client-side socket timeout")
    submit_p.add_argument("--stats", action="store_true",
                          help="fetch engine stats instead of submitting")
    submit_p.add_argument("--insert", default=None, metavar="JSON",
                          help="insert one object (JSON payload) into a "
                          "--mutations engine")
    submit_p.add_argument("--remove", type=int, default=None, metavar="ID",
                          help="remove one object from a --mutations engine")
    submit_p.add_argument("--subscribe", choices=["knn", "knng"], default=None,
                          help="register a standing query; pass --param "
                          "query=3 --param k=5 for knn, --param k=5 for knng")
    submit_p.add_argument("--deltas", type=int, default=None, metavar="SUB_ID",
                          help="poll deltas for a standing query")
    submit_p.add_argument("--since", type=int, default=0,
                          help="with --deltas: only deltas with seq > SINCE")
    submit_p.set_defaults(func=_cmd_submit)

    stats_p = sub.add_parser(
        "stats", help="inspect a running 'repro serve' engine's counters"
    )
    stats_p.add_argument("--socket", "--target", dest="socket", required=True,
                         metavar="TARGET",
                         help="unix socket path or host:port of the "
                         "running engine")
    stats_p.add_argument("--snapshot", action="store_true",
                         help="print the raw metrics registry in Prometheus "
                         "text format instead of the readable stats table")
    stats_p.add_argument("--json", action="store_true",
                         help="print the stats snapshot as JSON")
    stats_p.add_argument("--timeout", type=float, default=30.0,
                         help="client-side socket timeout")
    stats_p.set_defaults(func=_cmd_stats)

    churn_p = sub.add_parser(
        "churn", help="warm-engine mutation churn harness (offline)"
    )
    churn_p.add_argument("--dataset", choices=sorted(DATASETS), default="sf")
    churn_p.add_argument("--n", type=int, default=100)
    churn_p.add_argument("--seed", type=int, default=7)
    churn_p.add_argument("--provider", choices=list(PROVIDER_NAMES),
                         default="tri")
    churn_p.add_argument("--k", type=int, default=5,
                         help="k of the standing kNN-graph subscription")
    churn_p.add_argument("--fraction", type=float, default=0.1,
                         help="fraction of the live set churned per batch")
    churn_p.add_argument("--batches", type=int, default=3,
                         help="number of mutation batches to absorb")
    churn_p.set_defaults(func=_cmd_churn)

    build_p = sub.add_parser(
        "build-index",
        help="build a navigable graph: offline savings report, or submit a "
        "build_index job to a running engine",
    )
    build_p.add_argument("--dataset", choices=sorted(DATASETS), default="sf")
    build_p.add_argument("--n", type=int, default=150)
    build_p.add_argument("--seed", type=int, default=7)
    build_p.add_argument("--graph", choices=["hnsw", "nsg"], default="hnsw")
    build_p.add_argument("--m", type=int, default=8,
                         help="hnsw: max neighbours per node per layer")
    build_p.add_argument("--ef", type=int, default=32,
                         help="hnsw: construction beam width")
    build_p.add_argument("--r", type=int, default=8,
                         help="nsg: max out-degree")
    build_p.add_argument("--pool", type=int, default=16,
                         help="nsg: exact-kNN candidate pool size (>= r)")
    build_p.add_argument("--k", type=int, default=10,
                         help="recall@k evaluation depth (offline mode)")
    build_p.add_argument("--queries", type=int, default=20,
                         help="number of recall-evaluation queries "
                         "(offline mode)")
    build_p.add_argument("--name", default=None,
                         help="store the built index under this name "
                         "(remote mode)")
    build_p.add_argument("--socket", "--target", dest="socket", default=None,
                         metavar="TARGET",
                         help="submit to a running 'repro serve' engine "
                         "instead of building offline")
    build_p.add_argument("--param", action="append", type=_param_arg,
                         default=[], metavar="KEY=VALUE",
                         help="extra job parameter (remote mode, repeatable)")
    build_p.add_argument("--timeout", type=float, default=120.0,
                         help="client-side socket timeout (remote mode)")
    build_p.set_defaults(func=_cmd_build_index)
    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
