"""End-to-end benchmark: the paper's offline suite plus served traffic.

Run from the root of a checkout::

    python3 perfbench/run.py --workload served_warm --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` gives the one-line reason for each):

``offline_suite``
    Prim MST, kNN-graph (k=5), PAM (l=5, three SWAP passes) and kNN-graph
    with the space's weak tier, on a Tri-equipped ``SmartResolver`` over
    the SF-POI road space (n=200), zero-cost oracle, in the program
    process, no service.  Its inputs are the paper's fixed configuration:
    every seed-dependent choice tried (id relabelling, Prim root, PAM
    initialisation) moved the suite's strong calls by 13-30% across seeds.
    It runs ``0.6 * --seconds`` identical passes and reports one pass:
    each algorithm at its fastest run (see ``OFFLINE_PASSES_PER_S``).
``served_warm``
    A warm ``ProximityEngine`` (Tri; set-up runs a kNN-graph job and an
    HNSW ``build_index``) behind ``AsyncProximityServer`` over TCP;
    kNN / range / nearest / ``search_index`` requests on Zipf-skewed ids.
``served_cold_churn``
    The same front end over a cold ``DynamicObjectSet`` (180 of 200 objects
    live); every live id once per phase, with a 10% ``mutate`` batch as a
    barrier between phases.
``served_sharded``
    ``ShardedEngine`` with two shard processes behind the same front end,
    cold; every id once before any repeats.

Served request kinds come in equal shares, with ``k`` = 5 and range radius
0.12 throughout (``common.QUERY_K``, ``common.RANGE_RADIUS``).  Request
sequences and churn batches are fixed; the seed shuffles each window of
24 consecutive requests (``common.ORDER_WINDOW``).  The served
oracle sleeps 1 ms per call.  The program runs in a process of its own
(``program.py``) and only ever sees the generated requests.  This process
makes every request and churn batch, computes the bound-free
reference answers before anything is timed, drives a closed loop of at
most ``nproc`` connections and checks every answer.  The work in the timed
phase is fixed from ``--seconds`` and a per-workload rate, so counts
repeat exactly for one seed.  ``strong_calls`` counts the charged strong
calls of the timed phase only (mutation maintenance included; set-up and
warm-up excluded); ``virtual_s`` prices them on top of the timed phase's
CPU seconds.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced (layer wrappers from ``layers.py``),
checks the two runs' answers agree and that the request spans cover at
least 95% of the client-measured latency, writes JSONL spans to
``.perfbench/`` and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
if __name__ == "__main__" and not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.exit("perfbench: run from the root of a checkout (src/repro not found)")
sys.path[:0] = [SRC, HERE]

import common  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("offline_suite", "served_warm", "served_cold_churn", "served_sharded")
#: Program set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Offline passes (four algorithms each) per ``--seconds``.  The offline
#: times are each algorithm's fastest run over the passes: the reference
#: box (2 vCPUs, shared) swings between a fast CPU state and one about 1.6x
#: slower every few seconds, and replaying runs on a recorded timeline of
#: that swing gave time spreads across runs of 0.33 for the sum of three
#: passes, 0.21 for the best of three and 0.08 for the best of six.  A
#: pass takes 3-4.5 s there, so the offline timed phase lasts about 2.5x
#: ``--seconds``.
OFFLINE_PASSES_PER_S = 0.6
#: Requests per second each served workload sustains on the reference box;
#: the timed phase issues ``seconds * rate`` requests.
SERVED_RATE = {"served_warm": 400, "served_cold_churn": 160, "served_sharded": 12}
#: Closed-loop connections (at most nproc).  One for the sharded workload:
#: two overlapping scatters queue behind each other's shard RPCs and edge
#: drains, which makes its latency a function of scheduling luck.
MAX_CONNECTIONS = {"served_sharded": 1}
#: A run gives up (non-zero exit, no result) after this many seconds.
RUN_DEADLINE_S = 170
#: A traced run fails when its request spans account for less of the
#: client-measured latency than this.
MIN_COVERAGE = 0.95
SERVED_KINDS = ("knn", "range", "nearest", "search_index")


# -- helpers ---------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def p99_support(count: int) -> int:
    """Samples that lie beyond the 99th percentile of ``count`` samples."""
    return int(count * 0.01)


def check_answers(records: List[Dict[str, Any]], expected: Dict[int, str]) -> Tuple[int, int]:
    """Count attempted and failed requests against the reference answers.

    A request fails when it got no reply, when the transport or the engine
    reports an error, when its job did not end ``completed``, or when its
    answer differs from the bound-free reference.
    """
    failed = len(expected) - len(records)
    for record in records:
        response = record["response"]
        result = response.get("result") if response.get("ok") else None
        if (
            result is None
            or result.get("status") != "completed"
            or json.dumps(result.get("value"), sort_keys=True) != expected[record["rid"]]
        ):
            failed += 1
    return len(expected), failed


def check_mutations(records: List[Dict[str, Any]], expected: List[Dict[str, Any]]) -> int:
    """Failed mutation barriers: an error, or ids other than the mirror's."""
    failed = 0
    for record, want in zip(records, expected):
        response = record["response"]
        result = response.get("result", {}) if response.get("ok") else {}
        if (
            result.get("inserted_ids") != want["inserted_ids"]
            or result.get("removed_ids") != want["removed_ids"]
        ):
            failed += 1
    return failed + abs(len(records) - len(expected))


# -- the program process ---------------------------------------------------------


class Program:
    """One launch of ``program.py``: set-up time, commands, result."""

    def __init__(self, workload: str, passes: int, trace_dir: str) -> None:
        env = dict(os.environ)
        paths = [SRC, HERE]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env.pop(layers.TRACE_DIR_ENV, None)
        command = [
            sys.executable, os.path.join(HERE, "program.py"),
            "--workload", workload, "--passes", str(passes),
        ]
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )
        self.ready = self._read()
        self.setup_s = time.perf_counter() - start

    def _read(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(f"program exited with code {self.proc.returncode}")
        return json.loads(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self) -> Dict[str, Any]:
        self.send("stop")
        result = self._read()
        self.close()
        return result

    def close(self) -> None:
        """Ask the program to exit and wait for it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def set_up(workload: str, passes: int, trace_dir: str) -> Tuple[Program, float]:
    """Launch the program SETUP_REPEATS times; keep the last; median set-up."""
    times = []
    for attempt in range(SETUP_REPEATS):
        program = Program(workload, passes, trace_dir if attempt == SETUP_REPEATS - 1 else "")
        times.append(program.setup_s)
        if attempt < SETUP_REPEATS - 1:
            program.close()
    return program, statistics.median(times)


# -- load generator --------------------------------------------------------------


class Connection:
    """One JSON-lines TCP connection to the front end."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.file = self.sock.makefile("rb")

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        start = time.monotonic()
        self.sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
        line = self.file.readline()
        end = time.monotonic()
        response = json.loads(line) if line else {"ok": False, "error": "connection closed"}
        return {"rid": request.get("rid"), "op": request["op"],
                "kind": request.get("spec", {}).get("kind", request["op"]),
                "start": start, "end": end, "response": response}

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def drive(port: int, inputs: Dict[str, Any], connections: int) -> Dict[str, Any]:
    """Closed loop: each connection sends its next request after the reply."""
    conns = [Connection(port) for _ in range(connections)]
    records: List[Dict[str, Any]] = []
    mutations: List[Dict[str, Any]] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    try:
        cpu0 = time.process_time()
        start = time.monotonic()
        for index, phase in enumerate(inputs["phases"]):
            cursor = iter(phase)

            def worker(conn: Connection) -> None:
                try:
                    while True:
                        with lock:
                            request = next(cursor, None)
                        if request is None:
                            return
                        record = conn.call(request)
                        with lock:
                            records.append(record)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(c,)) for c in conns]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
            if index < len(inputs["mutations"]):
                mutations.append(conns[0].call({
                    "op": "mutate", "rid": -1 - index,
                    "mutations": inputs["mutations"][index]["batch"],
                }))
        wall = time.monotonic() - start
        cpu = time.process_time() - cpu0
    finally:
        for conn in conns:
            conn.close()
    return {"records": records, "mutations": mutations, "wall_s": wall, "generator_cpu_s": cpu}


# -- one run of a workload -------------------------------------------------------


def run_offline(seconds: int, trace_dir: str) -> Dict[str, Any]:
    """Identical passes of the suite, reported as one pass at its fastest.

    Each algorithm's time is its fastest run over the passes; ``wall_s``
    is their sum and the latencies are the four of them.  Calls are one
    pass's (every pass makes the same calls).
    """
    passes = max(1, round(seconds * OFFLINE_PASSES_PER_S))
    reference = common.offline_reference()
    program, setup_s = set_up("offline_suite", passes, trace_dir)
    try:
        program.send("go")
        out = program.finish()
    finally:
        program.close()
    attempted = failed = 0
    for name, answers in out["answers"].items():
        for answer in answers:
            attempted += 1
            failed += answer != reference[name]
    rows = out["rows"]

    def fastest(key: str) -> List[float]:
        return [min(r[key] for r in rows if r["algorithm"] == name)
                for name in common.OFFLINE_ALGORITHMS]

    first_pass = rows[:len(common.OFFLINE_ALGORITHMS)]
    return {
        "workload": "offline_suite", "setup_s": setup_s, "program": out,
        "attempted": attempted, "failed": failed, "answers": out["answers"],
        "wall_s": sum(fastest("wall_s")), "latencies_s": fastest("wall_s"),
        "phase_s": sum(r["wall_s"] for r in rows), "cpu_s": sum(fastest("cpu_s")),
        "completed": (attempted - failed) / passes, "generator_cpu_s": 0.0,
        "strong_calls": sum(r["strong_calls"] for r in first_pass),
        "weak_calls": sum(r["weak_calls"] for r in first_pass),
    }


def run_served(workload: str, trace_dir: str, inputs: Dict[str, Any]) -> Dict[str, Any]:
    program, setup_s = set_up(workload, 1, trace_dir)
    try:
        connections = max(1, min(MAX_CONNECTIONS.get(workload, 2), os.cpu_count() or 1))
        program.send("go")
        load = drive(program.ready["port"], inputs, connections)
        out = program.finish()
    finally:
        program.close()
    reads = load["records"]
    attempted, failed = check_answers(reads, inputs["expected"])
    completed = attempted - failed
    failed += check_mutations(load["mutations"], inputs["mutations"])
    attempted += len(inputs["mutations"])
    return {
        "workload": workload, "setup_s": setup_s, "program": out,
        "attempted": attempted, "failed": failed,
        "answers": {r["rid"]: json.dumps(r["response"].get("result", {}).get("value"),
                                         sort_keys=True) for r in reads},
        "wall_s": load["wall_s"], "phase_s": load["wall_s"], "cpu_s": out["cpu_s"],
        "generator_cpu_s": load["generator_cpu_s"],
        "latencies_s": [r["end"] - r["start"] for r in reads],
        "mutate_s": [r["end"] - r["start"] for r in load["mutations"]],
        "completed": completed,
        "records": reads, "mutation_records": load["mutations"],
        "strong_calls": out["after"]["strong_calls"] - out["before"]["strong_calls"],
        "weak_calls": 0,
    }


def run_workload(workload: str, seconds: int, inputs: Optional[Dict[str, Any]],
                 trace_dir: str = "") -> Dict[str, Any]:
    if workload == "offline_suite":
        return run_offline(seconds, trace_dir)
    return run_served(workload, trace_dir, inputs)


def make_inputs(workload: str, seed: int, seconds: int) -> Optional[Dict[str, Any]]:
    """Every request and churn batch of a served run, with reference answers."""
    if workload == "offline_suite":
        return None
    return common.served_inputs(workload, seed, max(1, round(seconds * SERVED_RATE[workload])))


# -- metrics ---------------------------------------------------------------------


def end_to_end(run: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    program = run["program"]
    lat_ms = [1e3 * x for x in run["latencies_s"]]
    virtual = (run["cpu_s"] + run["strong_calls"] * common.STRONG_PRICE_S
               + run["weak_calls"] * common.WEAK_PRICE_S)
    values = {
        "setup_s": (run["setup_s"], "s"),
        "wall_s": (run["wall_s"], "s"),
        "throughput_rps": (run["completed"] / run["wall_s"], "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p99_ms": (percentile(lat_ms, 99), "ms"),
        "strong_calls": (run["strong_calls"], "count"),
        "virtual_s": (virtual, "s"),
        "peak_rss_mb": (program["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _merged_trace(run: Dict[str, Any], trace_dir: str) -> Dict[str, Any]:
    """The program's trace plus every shard's, keyed for per-layer metrics."""
    main = run["program"]["trace"] or {"counters": {}, "samples": {}, "spans": [], "meta": {}}
    shards: Dict[int, Dict[str, Any]] = {}
    for name in sorted(os.listdir(trace_dir)) if trace_dir and os.path.isdir(trace_dir) else []:
        if name.startswith("layers-") and name.endswith(".json"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                data = json.load(fh)
            if "shard" in data["meta"]:
                shards[int(data["meta"]["shard"])] = data
    counters = dict(main["counters"])
    samples = {k: list(v) for k, v in main["samples"].items()}
    for data in shards.values():
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        for key, values in data["samples"].items():
            samples.setdefault(key, []).extend(values)
    return {"counters": counters, "samples": samples, "spans": main["spans"], "shards": shards}


def request_breakdown(run: Dict[str, Any], spans: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per-request transport / dispatch / queue / job seconds from the spans."""
    by_rid: Dict[Any, Dict[str, Dict[str, Any]]] = {}
    for span in spans:
        by_rid.setdefault(span["rid"], {})[span["name"]] = span
    out: Dict[str, List[float]] = {"client": [], "transport": [], "dispatch": [],
                                   "queue": [], "job": []}
    for record in run["records"] + run["mutation_records"]:
        found = by_rid.get(record["rid"], {})
        handle = found.get("backend.handle_request")
        inner = found.get("engine.submit_to_result") or found.get("sharding.scatter")
        job = found.get("engine.job") or found.get("sharding.scatter")
        rt = record["end"] - record["start"]
        out["client"].append(rt)
        if handle is not None and record["op"] == "mutate":
            # A mutation batch runs inside dispatch: no queue, no job.
            inner = job = {"start": handle["end"], "end": handle["end"]}
        if handle is None or inner is None or job is None:
            continue
        h = handle["end"] - handle["start"]
        s = inner["end"] - inner["start"]
        j = job["end"] - job["start"]
        out["transport"].append(rt - h)
        out["dispatch"].append(h - s)
        out["queue"].append(s - j)
        out["job"].append(j)
    return out


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any], trace_dir: str
              ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """Per-layer metrics from a traced run, plus the where-time-goes detail."""
    merged = _merged_trace(traced, trace_dir)
    c, samples = merged["counters"], merged["samples"]
    # Shares are of the whole timed phase (every offline pass), which is
    # what the counters cover.
    wall = traced["phase_s"]
    program = traced["program"]
    rows = program.get("rows", [])

    def ms50(key: str) -> float:
        return 1e3 * percentile(samples.get(key, []), 50)

    metrics: Dict[str, Tuple[float, str]] = {}
    breakdown = request_breakdown(traced, merged["spans"]) if "records" in traced else {}
    client_total = sum(breakdown.get("client", []))
    parts_total = sum(sum(breakdown.get(k, [])) for k in ("transport", "dispatch", "queue", "job"))
    metrics["aserver.transport_ms_p50"] = (1e3 * percentile(breakdown.get("transport", []), 50), "ms")
    metrics["dispatch.self_ms_p50"] = (1e3 * percentile(breakdown.get("dispatch", []), 50), "ms")
    metrics["queue.wait_ms_p50"] = (ms50("queue.wait_s"), "ms")
    metrics["queue.wait_ms_p99"] = (1e3 * percentile(samples.get("queue.wait_s", []), 99), "ms")
    for kind in SERVED_KINDS:
        metrics[f"engine.job_ms_p50.{kind}"] = (ms50(f"engine.job_s.{kind}"), "ms")
    before, after = program.get("before", {}), program.get("after", {})

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    metrics["engine.warm_resolutions"] = (delta("warm_resolutions"), "count")
    for mode in ("read", "write"):
        metrics[f"lock.{mode}_wait_s"] = (c.get(f"lock.{mode}_wait_s", 0.0), "s")
        metrics[f"lock.{mode}_acquires"] = (c.get(f"lock.{mode}_acquires", 0.0), "count")
    kernel_s = c.get("kernels.tri_frontier.s", 0.0)
    bounds_self = c.get("bounds.s", 0.0) - kernel_s
    if rows:
        hits = sum(r["bound_cache_hits"] for r in rows)
        queries = sum(r["bound_queries"] for r in rows)
        decided_b = sum(r["decided_by_bounds"] for r in rows)
        decided_o = sum(r["decided_by_oracle"] for r in rows)
        resolutions = sum(r["oracle_resolutions"] for r in rows)
        bound_time = sum(r["bound_time_s"] for r in rows)
    else:
        hits, queries = delta("memo_hits"), delta("memo_queries")
        decided_b = c.get("resolver.decided_by_bounds", 0.0)
        decided_o = c.get("resolver.decided_by_oracle", 0.0)
        resolutions = c.get("resolver.oracle_resolutions", 0.0)
        bound_time = c.get("resolver.bound_time_s", 0.0)
    metrics["bounds.calls"] = (c.get("bounds.calls", 0.0), "count")
    metrics["bounds.pairs"] = (c.get("bounds.pairs", 0.0), "count")
    metrics["bounds.self_s"] = (bounds_self, "s")
    metrics["bounds.memo_hit_rate"] = (hits / queries if queries else 0.0, "ratio")
    metrics["kernels.tri_frontier.calls"] = (c.get("kernels.tri_frontier.calls", 0.0), "count")
    metrics["kernels.tri_frontier.s"] = (kernel_s, "s")
    metrics["bounds.share"] = (bounds_self / wall, "ratio")
    comparisons = decided_b + decided_o
    metrics["resolver.comparisons"] = (comparisons, "count")
    metrics["resolver.oracle_resolutions"] = (resolutions, "count")
    metrics["resolver.prune_rate"] = (decided_b / comparisons if comparisons else 0.0, "ratio")
    metrics["resolver.bound_time_s"] = (bound_time, "s")
    metrics["oracle.evals"] = (c.get("oracle.evals", 0.0), "count")
    metrics["oracle.busy_s"] = (c.get("oracle.busy_s", 0.0), "s")
    metrics["oracle.in_flight"] = (c.get("oracle.busy_s", 0.0) / wall, "ratio")
    metrics["graph.add_edge_calls"] = (c.get("graph.add_edge.calls", 0.0), "count")
    metrics["graph.add_edge_s"] = (c.get("graph.add_edge.s", 0.0), "s")
    if rows:
        metrics["graph.edges"] = (sum(r["graph_edges"] for r in rows), "count")
        metrics["graph.csr_rebuilds"] = (sum(r["csr_rebuilds"] for r in rows), "count")
        metrics["graph.edge_mirror_rebuilds"] = (sum(r["edge_mirror_rebuilds"] for r in rows), "count")
    else:
        metrics["graph.edges"] = (after.get("graph_edges", 0), "count")
        metrics["graph.csr_rebuilds"] = (delta("csr_rebuilds"), "count")
        metrics["graph.edge_mirror_rebuilds"] = (delta("edge_mirror_rebuilds"), "count")
    metrics["tiering.weak_calls"] = (sum(r["weak_calls"] for r in rows), "count")
    metrics["tiering.weak_band"] = (sum(r["weak_band"] for r in rows), "count")
    metrics["dynamic.apply_ms_p50"] = (ms50("dynamic.apply_s"), "ms")
    metrics["dynamic.maintenance_strong_calls"] = (c.get("dynamic.maintenance_strong_calls", 0.0), "count")
    metrics["dynamic.invalidated"] = (c.get("dynamic.invalidated", 0.0), "count")
    metrics["mutate_p50_ms"] = (1e3 * percentile(untraced.get("mutate_s", []), 50), "ms")
    metrics["graphs.search_ms_p50"] = (ms50("graphs.search_s"), "ms")
    metrics["graphs.search_strong_calls"] = (c.get("graphs.search_strong_calls", 0.0), "count")
    for name in common.OFFLINE_ALGORITHMS:
        mine = [r for r in rows if r["algorithm"] == name]
        metrics[f"algorithms.{name}.s"] = (min((r["wall_s"] for r in mine), default=0.0), "s")
        metrics[f"algorithms.{name}.strong_calls"] = (mine[0]["strong_calls"] if mine else 0, "count")
    routes = [s["end"] - s["start"] for s in merged["spans"]
              if s["name"] == "backend.handle_request"] if merged["shards"] else []
    metrics["sharding.route_ms_p50"] = (1e3 * percentile(routes, 50), "ms")
    busy = []
    for k in range(common.SHARDS):
        shard = merged["shards"].get(k)
        job_s = shard["counters"].get("engine.job_s", 0.0) if shard else 0.0
        metrics[f"sharding.shard_job_s.{k}"] = (job_s, "s")
        busy.append(job_s)
    mean_busy = sum(busy) / len(busy)
    metrics["sharding.imbalance"] = (max(busy) / mean_busy if mean_busy else 0.0, "ratio")
    metrics["sharding.edges_drained"] = (delta("store_edges"), "count")
    metrics["trace.overhead"] = (traced["wall_s"] / untraced["wall_s"], "ratio")
    metrics["trace.coverage"] = (parts_total / client_total if client_total else 1.0, "ratio")
    metrics["generator.cpu_s"] = (traced["generator_cpu_s"], "s")
    metrics["error_rate"] = (traced["failed"] / traced["attempted"], "ratio")
    detail = {"breakdown": breakdown, "counters": c, "samples": samples,
              "bounds_self": bounds_self, "kernel_s": kernel_s, "spans": merged["spans"]}
    return ({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, detail)


# -- reporting -------------------------------------------------------------------


def where_time_goes(run: Dict[str, Any], detail: Dict[str, Any]) -> List[Tuple[str, float]]:
    """Layers ranked by self time, in seconds summed over the timed phase.

    Served layers sum over concurrent connections, and shard layers over
    shards, so shares of the timed phase can add up to more than 100%.
    """
    c = detail["counters"]
    inner = {
        "bounds (self)": detail["bounds_self"],
        "kernels.tri_frontier": detail["kernel_s"],
        "lock wait": c.get("lock.read_wait_s", 0.0) + c.get("lock.write_wait_s", 0.0),
        "oracle": c.get("oracle.busy_s", 0.0),
        "graph.add_edge": c.get("graph.add_edge.s", 0.0),
    }
    if run["workload"] == "offline_suite":
        layers_s = {"algorithms (self)": run["phase_s"] - sum(inner.values())}
    else:
        b = detail["breakdown"]
        applied = sum(detail["samples"].get("dynamic.apply_s", []))
        layers_s = {
            "aserver transport": sum(b["transport"]),
            "dispatch (self)": sum(b["dispatch"]) - applied,
            "dynamic.apply_mutations": applied,
            "queue wait": sum(detail["samples"].get("queue.wait_s", [])),
            "engine job (self)": c.get("engine.job_s", 0.0) - sum(inner.values()),
        }
        if run["workload"] == "served_sharded":
            layers_s["scatter (coordinator)"] = sum(b["job"])
    layers_s.update(inner)
    return sorted(layers_s.items(), key=lambda item: -item[1])


def print_end_to_end(run: Dict[str, Any], metrics: Dict[str, Dict[str, Any]]) -> None:
    n = len(run["latencies_s"])
    beyond = p99_support(n)
    print(f"== {run['workload']}: end-to-end ==")
    for name, m in metrics.items():
        note = ""
        if name == "wall_s":
            note = f"   (generator cpu {run['generator_cpu_s']:.3f} s)"
        elif name.startswith("latency_"):
            note = f"   (n={n}" + (f", {beyond} beyond p99)" if name.endswith("p99_ms") else ")")
            if name.endswith("p99_ms") and beyond < 10:
                note += "  fewer than 10 samples beyond p99"
        print(f"  {name:<16} {m['value']:>14.4f} {m['unit']:<6}{note}")
    print(f"  {'error_rate':<16} {run['failed'] / run['attempted']:>14.4f} ratio"
          f"   ({run['failed']} of {run['attempted']})")


def print_per_layer(run: Dict[str, Any], metrics: Dict[str, Dict[str, Any]],
                    detail: Dict[str, Any]) -> None:
    phase = run["phase_s"]
    print(f"== {run['workload']}: where time goes (self time / timed phase = {phase:.3f} s;"
          " served layers sum over concurrent connections) ==")
    for name, seconds in where_time_goes(run, detail):
        print(f"  {name:<22} {seconds:>10.4f} s  {100 * seconds / phase:>7.2f} %")
    print(f"  bounds.share = {metrics['bounds.share']['value']:.4f} "
          f"(bounds self {detail['bounds_self']:.4f} s / timed phase {phase:.4f} s); "
          f"kernels.tri_frontier.s = {metrics['kernels.tri_frontier.s']['value']:.4f} s")
    print(f"  tracing overhead = {metrics['trace.overhead']['value']:.3f}x traced/untraced wall_s;"
          f" spans cover {100 * metrics['trace.coverage']['value']:.2f} % of client latency")
    print(f"== {run['workload']}: per-layer ==")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.4f} {m['unit']}")


def write_spans(path: str, run: Dict[str, Any], spans: List[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in run.get("records", []):
            fh.write(json.dumps({"name": "request", "start": record["start"], "end": record["end"],
                                 "parent": None, "rid": record["rid"], "kind": record["kind"]}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# -- entry point -----------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def give_up(signum, frame):  # noqa: ARG001 - signal handler signature
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(RUN_DEADLINE_S)

    inputs = make_inputs(args.workload, args.seed, args.seconds)
    run = run_workload(args.workload, args.seconds, inputs)
    if args.trace == 0:
        metrics = end_to_end(run)
        print_end_to_end(run, metrics)
        final = run
    else:
        out_dir = os.path.join(os.getcwd(), ".perfbench")
        trace_dir = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
        os.makedirs(trace_dir, exist_ok=True)
        for name in os.listdir(trace_dir):
            os.unlink(os.path.join(trace_dir, name))
        traced = run_workload(args.workload, args.seconds, inputs, trace_dir)
        metrics, detail = per_layer(run, traced, trace_dir)
        write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"),
                    traced, detail["spans"])
        print_end_to_end(run, end_to_end(run))
        print_per_layer(traced, metrics, detail)
        if traced["answers"] != run["answers"]:
            raise AssertionError("traced answers differ from untraced answers")
        if metrics["trace.coverage"]["value"] < MIN_COVERAGE:
            raise AssertionError(
                f"request spans cover {metrics['trace.coverage']['value']:.3f} of client latency,"
                f" below {MIN_COVERAGE}: spans were lost"
            )
        final = traced
    signal.alarm(0)
    correct = final["failed"] == 0 and (args.trace == 0 or run["failed"] == 0)
    print(json.dumps({"correct": correct, "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
