"""The program under test, in a process of its own.

``python3 perfbench/program.py --workload W [--passes P] [--trace-dir D]``
sets the workload's program up, prints one ``{"ready": ...}`` JSON line and
then follows commands read from standard input, one per line:

``go``
    Start of the timed phase: counters and CPU clocks are read (and the
    trace is cleared) here.  ``offline_suite`` then runs its passes.
``stop``
    End of the run: print one result JSON line, shut down, exit.

The served workloads run an :class:`~repro.service.aserver.AsyncProximityServer`
on an ephemeral TCP port over a :class:`~repro.service.engine.ProximityEngine`
or a :class:`~repro.service.sharding.ShardedEngine`; ``offline_suite`` runs
the paper's batch algorithms in this process with no service.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from typing import Any, Dict, List

import common
import layers


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _processes() -> List[int]:
    """This process and its live children (shard processes)."""
    return [os.getpid()] + [child.pid for child in multiprocessing.active_children()]


def _cpu_s() -> float:
    return sum(_proc_cpu_s(pid) for pid in _processes())


def _emit(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _command() -> str:
    return sys.stdin.readline().strip()


# -- offline suite ---------------------------------------------------------------


def run_offline(passes: int, trace) -> None:
    space = common.bench_space()
    # The only module the suite imports lazily; load it in set-up, not in
    # the first timed pass.
    import repro.harness.providers  # noqa: F401
    _emit({"ready": True})
    if _command() != "go":
        return
    if trace is not None:
        trace.reset()
    rows = []
    answers: Dict[str, List[str]] = {name: [] for name in common.OFFLINE_ALGORITHMS}
    for _ in range(passes):
        for name in common.OFFLINE_ALGORITHMS:
            start = time.perf_counter()
            cpu_start = time.process_time()
            answer, resolver, oracle, weak_calls, weak_band = common.run_algorithm(
                name, space, "tri"
            )
            wall = time.perf_counter() - start
            stats = resolver.stats
            rows.append({
                "algorithm": name,
                "wall_s": wall,
                "cpu_s": time.process_time() - cpu_start,
                "strong_calls": oracle.calls,
                "weak_calls": weak_calls,
                "weak_band": weak_band,
                "decided_by_bounds": stats.decided_by_bounds,
                "decided_by_oracle": stats.decided_by_oracle,
                "oracle_resolutions": stats.oracle_resolutions,
                "bound_time_s": stats.bound_time_s,
                "bound_queries": stats.bound_queries,
                "bound_cache_hits": stats.bound_cache_hits,
                "graph_edges": resolver.graph.num_edges,
                "csr_rebuilds": resolver.graph.csr_mirror_rebuilds,
                "edge_mirror_rebuilds": resolver.graph.edge_mirror_rebuilds,
            })
            answers[name].append(common.canonical(answer))
    if _command() != "stop":
        return
    _emit({
        "rows": rows,
        "answers": answers,
        "peak_rss_mb": _proc_peak_rss_mb(os.getpid()),
        "trace": None if trace is None else trace.snapshot(),
    })


# -- served workloads ------------------------------------------------------------


def _build_backend(workload: str):
    """Build the engine (or coordinator) for a served workload; returns (backend, engine)."""
    from repro.service import ProximityEngine, ShardedEngine
    from repro.service.aserver import engine_backend
    from repro.service.jobs import JobSpec

    if workload == "served_sharded":
        from repro.spaces.handles import handle_for

        handle = handle_for(common.bench_space, common.ORACLE_DELAY_S)
        sharded = ShardedEngine(handle, num_shards=common.SHARDS, provider="tri")
        return sharded, sharded
    space = common.bench_space(common.ORACLE_DELAY_S)
    if workload == "served_warm":
        engine = ProximityEngine.for_space(space, provider="tri", job_workers=2)
        for spec in (
            JobSpec(kind="knng", params={"k": common.WARM_KNNG_K}),
            JobSpec(kind="build_index", params=dict(common.HNSW_PARAMS), label="build-index"),
        ):
            result = engine.run(spec)
            if not result.ok:
                raise RuntimeError(f"warm-up {spec.kind} ended {result.status.value}: {result.error}")
    elif workload == "served_cold_churn":
        from repro.dynamic import DynamicObjectSet

        objects = DynamicObjectSet.wrap(space, initial=common.CHURN_INITIAL)
        engine = ProximityEngine.for_space(objects, provider="tri", job_workers=2)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return engine_backend(engine), engine


def _engine_counts(engine) -> Dict[str, float]:
    """Charged strong calls and graph/store sizes, summed over shards."""
    from repro.service import ShardedEngine

    if isinstance(engine, ShardedEngine):
        stats = engine.stats()
        return {
            "strong_calls": stats["aggregate"]["oracle_calls"],
            "warm_resolutions": stats["aggregate"]["warm_resolutions"],
            "graph_edges": stats["aggregate"]["graph_edges"],
            "store_edges": engine.store.num_edges,
            "memo_hits": sum(s["bound_cache_hits"] for s in stats["shards"]),
            "memo_queries": sum(s["bound_queries"] for s in stats["shards"]),
        }
    stats = engine.snapshot_stats()
    return {
        "strong_calls": stats.oracle_calls,
        "warm_resolutions": stats.warm_resolutions,
        "graph_edges": stats.graph_edges,
        "store_edges": 0,
        "memo_hits": stats.bound_cache_hits,
        "memo_queries": stats.bound_queries,
        "csr_rebuilds": engine.graph.csr_mirror_rebuilds,
        "edge_mirror_rebuilds": engine.graph.edge_mirror_rebuilds,
    }


def run_served(workload: str, trace, trace_dir: str) -> None:
    from repro.service.aserver import AsyncProximityServer

    if trace is not None:
        # Shard processes inherit the environment and trace themselves.
        os.environ[layers.TRACE_DIR_ENV] = trace_dir
    backend, engine = _build_backend(workload)
    if trace is not None:
        layers.wrap_backend(trace, backend)
    server = AsyncProximityServer(backend, host="127.0.0.1", port=0).start()
    try:
        _emit({"ready": True, "port": server.port})
        if _command() != "go":
            return
        if trace is not None:
            trace.reset()
        before = _engine_counts(engine)
        cpu0 = _cpu_s()
        if _command() != "stop":
            return
        cpu_s = _cpu_s() - cpu0
        after = _engine_counts(engine)
        peak = sum(_proc_peak_rss_mb(pid) for pid in _processes())
        result = {
            "cpu_s": cpu_s,
            "peak_rss_mb": peak,
            "before": before,
            "after": after,
            "trace": None if trace is None else trace.snapshot(),
        }
    finally:
        server.close()
        engine.close()
    _emit(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace-dir", default="")
    args = parser.parse_args(argv)
    trace = None
    if args.trace_dir:
        trace = layers.LayerTrace()
        layers.install(trace)
    if args.workload == "offline_suite":
        run_offline(args.passes, trace)
    else:
        run_served(args.workload, trace, args.trace_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
