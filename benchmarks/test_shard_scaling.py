"""Sharded-serving benchmark — throughput scaling with an expensive oracle.

The acceptance experiment for the sharded engine: a 16-query kNN workload
against a 6 ms-per-call oracle must run at least **2.5x faster** on a
4-shard :class:`~repro.service.ShardedEngine` than on a single-process
engine, with answers identical query for query and every shard's
resolved-edge sequence byte-identical to a single-process engine run on the
same candidate substream and seeded with the same store prefix before each
job (shards merge the rows their peers published before every job).

The oracle *sleeps* rather than burns CPU — that is the paper's regime (an
expensive distance call is dominated by I/O / external computation, not
local arithmetic), and it is what makes shard processes overlap even on a
single core.

Set ``SHARD_SCALING_JSON`` to a path to dump the raw measurements for
``scripts/bench_to_json.py`` (CI turns them into
``BENCH_shard_scaling.json``).
"""

import json
import os
import time

from repro.datasets import flickr_space
from repro.harness import render_table
from repro.service import ProximityEngine, ShardedEngine
from repro.service.jobs import JobSpec
from repro.spaces.handles import handle_for

N = 64
# 6 ms per call: expensive enough that oracle latency (which shards overlap)
# dominates the per-resolution CPU bookkeeping (which a single core cannot
# parallelise) — the regime the paper's expensive-oracle setting models.
DELAY = 0.006
NUM_QUERIES = 16
SHARDS = 4
SPEEDUP_FLOOR = 2.5


class SlowSpace:
    """Delegate to a real space, but make every distance call sleep."""

    def __init__(self, inner, delay):
        self._inner = inner
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def distance(self, i, j):
        time.sleep(self._delay)
        return self._inner.distance(i, j)

    def oracle(self, cost_per_call=0.0, budget=None):
        from repro.core.oracle import DistanceOracle

        return DistanceOracle(
            self.distance, self._inner.n, cost_per_call=cost_per_call, budget=budget
        )


def slow_flickr(n, dim, seed, delay):
    """Module-level factory: picklable by reference for shard processes."""
    return SlowSpace(flickr_space(n=n, dim=dim, seed=seed), delay)


def _workload():
    return [
        JobSpec(kind="knn", params={"query": (7 * idx) % N, "k": 4 + idx % 3})
        for idx in range(NUM_QUERIES)
    ]


def _timed(engine, workload):
    """Answers, seconds, and the store prefix published to each job."""
    prefixes = []
    answers = []
    started = time.perf_counter()
    for spec in workload:
        prefixes.append(engine.store.num_edges)
        answers.append(engine.run(spec).value)
    elapsed = time.perf_counter() - started
    return answers, elapsed, prefixes


def test_four_shards_beat_single_process_2_5x(report):
    handle = handle_for(slow_flickr, n=N, dim=6, seed=23, delay=DELAY)
    workload = _workload()

    single = ShardedEngine(handle, num_shards=1, provider="none")
    try:
        single_answers, single_seconds, _ = _timed(single, workload)
    finally:
        single.close()

    sharded = ShardedEngine(handle, num_shards=SHARDS, provider="none")
    try:
        sharded_answers, sharded_seconds, prefixes = _timed(sharded, workload)

        # Answers must be identical, query for query.
        assert sharded_answers == single_answers

        # Per-shard resolved-edge sequences must be byte-identical to a
        # single-process engine run on the same candidate substream and
        # seeded with the same store prefix before each job.
        space = handle.space()
        for shard, region in zip(sharded._shards, sharded.plan.regions):
            rows = sharded._call(shard, {"op": "edges", "start": 0})["edges"]
            ref = ProximityEngine.for_space(space, provider="none", job_workers=1)
            try:
                merged = 0
                for spec, prefix in zip(workload, prefixes):
                    ref.adopt_store(sharded.store, start=merged, stop=prefix)
                    merged = prefix
                    params = dict(spec.params)
                    params["candidates"] = list(region)
                    ref.run(JobSpec(kind="knn", params=params))
                i, j, w = ref.graph.edge_arrays()
                want = list(zip(i.tolist(), j.tolist(), w.tolist()))
            finally:
                ref.close(snapshot=False)
            assert [tuple(r) for r in rows] == want
    finally:
        sharded.close()

    speedup = single_seconds / sharded_seconds
    report(
        render_table(
            ["shards", "seconds", "throughput (q/s)", "speedup"],
            [
                [1, round(single_seconds, 2),
                 round(NUM_QUERIES / single_seconds, 2), 1.0],
                [SHARDS, round(sharded_seconds, 2),
                 round(NUM_QUERIES / sharded_seconds, 2), round(speedup, 2)],
            ],
            title=f"{NUM_QUERIES} kNN queries, n={N}, "
            f"{DELAY * 1e3:.0f} ms/oracle call",
        )
    )

    dump = os.environ.get("SHARD_SCALING_JSON")
    if dump:
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "n": N,
                    "queries": NUM_QUERIES,
                    "oracle_delay_seconds": DELAY,
                    "single_seconds": single_seconds,
                    "sharded_seconds": sharded_seconds,
                    "shards": SHARDS,
                    "speedup": speedup,
                    "answers_identical": True,
                    "per_shard_byte_identical": True,
                },
                fh,
                indent=2,
            )

    assert speedup >= SPEEDUP_FLOOR, (
        f"{SHARDS} shards ran the workload only {speedup:.2f}x faster than "
        f"one process — below the {SPEEDUP_FLOOR}x acceptance floor"
    )
