"""Seeded inputs and bound-free reference answers for the end-to-end benchmark.

Everything a run feeds the program is derived here: the SF-POI road space,
the request lists and churn batches (all fixed), their order within small
windows (from the workload seed), and the answer each request must return.
References are computed without any bound provider (``provider="none"``)
or by brute force over the live set, so a wrong answer from the
bound-accelerated program cannot also be in the reference.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.spaces.base import BaseSpace

#: Objects in the SF-POI stand-in (the paper's road dataset at laptop scale).
N = 200
#: The dataset is fixed for every workload seed.
DATASET_SEED = 7
#: Sleep per strong call on the served workloads.
ORACLE_DELAY_S = 1e-3
#: Virtual-clock prices (weak/strong split after arXiv 2310.15863).
STRONG_PRICE_S = 1e-3
WEAK_PRICE_S = 1e-5

OFFLINE_ALGORITHMS = ("prim", "knng", "pam", "knng_weak")
KNNG_K = 5
PAM_L = 5
PAM_SEED = 0
#: SWAP passes per PAM run (the paper's per-iteration cost, bounded run time).
PAM_ITERATIONS = 3

WARM_KNNG_K = 5
HNSW_PARAMS = {"graph": "hnsw", "m": 6, "ef": 16, "seed": 0}

#: Request kinds per served workload, in equal shares.
KINDS = {
    "served_warm": ("knn", "range", "nearest", "search_index"),
    "served_cold_churn": ("knn", "range", "nearest"),
    "served_sharded": ("knn", "range", "nearest"),
}
#: ``k`` of every kNN and index search, and the range radius: the query
#: settings of the repository's SF-POI service examples
#: (``examples/proximity_service.py``, ``examples/sharded_service.py``).
#: On this road space the radius holds about 9% of the objects.
QUERY_K = 5
RANGE_RADIUS = 0.12
#: Seed of the served request sequences (ids paired with kinds) and churn
#: batches.  The workload seed only shuffles each window of ORDER_WINDOW
#: consecutive requests.  Seeds that drew different ids, pairings or
#: batches moved a run's strong calls by 10-20%, and so did full
#: permutations of a cold sharded engine's requests (about 5% within
#: windows of 24).
REQUEST_SEED = 0
ORDER_WINDOW = 24

CHURN_INITIAL = 180
CHURN_FRACTION = 0.1
#: Churn barriers split the cold-churn request list into this many phases.
CHURN_PHASES = 6
SHARDS = 2


class BenchSpace(BaseSpace):
    """The SF-POI road space (n=200) as one precomputed, symmetric matrix.

    A pair reads the same float whichever endpoint asks first and in
    whichever process, so answers compare exactly across the program, its
    shards and the reference.  ``delay`` seconds are slept per
    :meth:`distance` call: the served workloads' expensive oracle.
    """

    def __init__(self, delay: float = 0.0) -> None:
        from repro.datasets import sf_poi_space

        super().__init__(N)
        self._base = sf_poi_space(n=N, seed=DATASET_SEED)
        matrix = np.zeros((N, N))
        for i in range(N):
            for j in range(i + 1, N):
                matrix[i, j] = matrix[j, i] = self._base.distance(i, j)
        self._rows = matrix.tolist()
        self.delay = float(delay)

    def distance(self, i: int, j: int) -> float:
        if self.delay:
            time.sleep(self.delay)
        return self._rows[i][j]

    def exact(self, i: int, j: int) -> float:
        """The distance without the oracle's delay (references only)."""
        return self._rows[i][j]

    def diameter_bound(self) -> float:
        return self._base.diameter_bound()

    def weak_oracle(self):
        """The road space's crow-flies weak tier."""
        return self._base.weak_oracle()


def bench_space(delay: float = 0.0) -> BenchSpace:
    """Module-level factory, so shard processes can rebuild the space from a handle."""
    from layers import trace_this_process_from_env

    trace_this_process_from_env()
    return BenchSpace(delay)


def canonical(value: Any) -> str:
    """A comparable JSON text for an answer, as it crosses the wire."""
    from repro.service.server import jsonable

    return json.dumps(jsonable(value), sort_keys=True)


# -- offline suite -------------------------------------------------------------


def run_algorithm(name: str, space: BenchSpace, provider: str):
    """Run one suite algorithm on a fresh resolver.

    Returns ``(answer, resolver, oracle, weak_calls, weak_band)``.  The
    reference runs use ``provider="none"`` and never the weak tier.
    """
    from repro import SmartResolver, TieredOracle
    from repro.algorithms import knn_graph, pam, prim_mst
    from repro.core.partial_graph import PartialDistanceGraph
    from repro.harness.providers import make_provider

    oracle = space.oracle()
    graph = PartialDistanceGraph(oracle.n)
    bounder = make_provider(provider, graph, space.diameter_bound(), None)
    resolver = SmartResolver(oracle, bounder=bounder, graph=graph)
    weak_calls = weak_band = 0
    if name == "prim":
        answer = prim_mst(resolver, root=0)
    elif name == "knng":
        answer = knn_graph(resolver, k=KNNG_K)
    elif name == "pam":
        answer = pam(resolver, l=PAM_L, seed=PAM_SEED, max_iterations=PAM_ITERATIONS)
    elif name == "knng_weak":
        if provider == "none":
            answer = knn_graph(resolver, k=KNNG_K)
        else:
            with TieredOracle(oracle, space.weak_oracle()) as tiered:
                tiered.attach(resolver, max_distance=space.diameter_bound())
                answer = knn_graph(resolver, k=KNNG_K)
                weak_calls, weak_band = tiered.weak_calls, tiered.weak_band
    else:
        raise ValueError(f"unknown offline algorithm {name!r}")
    return answer, resolver, oracle, weak_calls, weak_band


def offline_reference() -> Dict[str, str]:
    """Bound-free answers of every suite algorithm, as canonical JSON."""
    space = BenchSpace()
    return {name: canonical(run_algorithm(name, space, "none")[0]) for name in OFFLINE_ALGORITHMS}


# -- served workloads ----------------------------------------------------------


def _spread(rng, values, count: int) -> List[int]:
    """``count`` draws that use every value once, in a seeded order, before any repeats."""
    out: List[int] = []
    while len(out) < count:
        out.extend(int(v) for v in rng.permutation(list(values)))
    return out[:count]


def _specs(rng, kinds: Tuple[str, ...], ids: List[int]) -> List[Dict[str, Any]]:
    """One request per id; the kinds in equal shares, in a seeded order."""
    order = [kinds[i % len(kinds)] for i in range(len(ids))]
    rng.shuffle(order)
    specs = []
    for kind, query in zip(order, ids):
        if kind == "knn":
            params = {"query": query, "k": QUERY_K}
        elif kind == "range":
            params = {"query": query, "radius": RANGE_RADIUS}
        elif kind == "nearest":
            params = {"query": query}
        else:
            params = {"query": query, "k": QUERY_K, "name": "hnsw"}
        specs.append({"kind": kind, "params": params})
    return specs


def _brute_answer(space: BenchSpace, spec: Dict[str, Any], live: List[int],
                  payload: Optional[Dict[int, int]] = None) -> Any:
    """Brute-force answer over the live ids; ``payload`` maps slot ids to base ids."""
    base = payload.__getitem__ if payload is not None else int
    p = spec["params"]
    q = p["query"]
    ranked = sorted((space.exact(base(q), base(c)), c) for c in live if c != q)
    if spec["kind"] == "knn":
        return [[d, c] for d, c in ranked[: p["k"]]]
    if spec["kind"] == "range":
        return sorted(c for d, c in ranked if d <= p["radius"])
    d, c = ranked[0]
    return [c, d]


def _index_answers(space: BenchSpace, specs: List[Dict[str, Any]]) -> Dict[Tuple[int, int], Any]:
    """search_index answers from a bound-free HNSW build and search."""
    from repro import SmartResolver
    from repro.graphs import build_hnsw_naive, graph_search

    oracle = space.oracle()
    index = build_hnsw_naive(
        oracle, m=HNSW_PARAMS["m"], ef_construction=HNSW_PARAMS["ef"], seed=HNSW_PARAMS["seed"]
    )
    resolver = SmartResolver(space.oracle())
    out = {}
    for spec in specs:
        key = (spec["params"]["query"], spec["params"]["k"])
        if key not in out:
            out[key] = [[d, c] for d, c in graph_search(resolver, index, key[0], key[1])]
    return out


def served_inputs(workload: str, seed: int, count: int) -> Dict[str, Any]:
    """The request phases (with churn barriers) and their reference answers.

    Returns ``{"phases": [[request, ...], ...], "mutations": [barrier, ...],
    "expected": {rid: canonical answer}}``.  ``mutations[i]`` holds the wire
    ``batch`` sent between ``phases[i]`` and ``phases[i + 1]`` (a barrier no
    read overlaps) and the ``inserted_ids``/``removed_ids`` it must report.

    The requests of each phase and the churn batches are drawn from
    ``REQUEST_SEED``; ``seed`` shuffles each window of ``ORDER_WINDOW``
    consecutive requests.
    """
    from repro.harness.workloads import zipf_queries

    space = BenchSpace()
    fixed = np.random.default_rng(REQUEST_SEED)
    rng = np.random.default_rng(seed + 1)
    expected: Dict[int, str] = {}
    phases: List[List[Dict[str, Any]]] = []
    mutations: List[Dict[str, Any]] = []
    kinds = KINDS[workload]

    def request(rid: int, spec: Dict[str, Any]) -> Dict[str, Any]:
        return {"op": "submit", "spec": spec, "rid": rid}

    def ordered(specs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        out = []
        for start in range(0, len(specs), ORDER_WINDOW):
            window = specs[start:start + ORDER_WINDOW]
            out.extend(window[i] for i in rng.permutation(len(window)))
        return out

    if workload in ("served_warm", "served_sharded"):
        if workload == "served_warm":
            ids = zipf_queries(N, count, exponent=1.2, seed=REQUEST_SEED)
        else:
            ids = _spread(fixed, range(N), count)
        specs = ordered(_specs(fixed, kinds, ids))
        index_answers = _index_answers(space, [s for s in specs if s["kind"] == "search_index"])
        live = list(range(N))
        phase = []
        for rid, spec in enumerate(specs):
            if spec["kind"] == "search_index":
                answer = index_answers[(spec["params"]["query"], spec["params"]["k"])]
            else:
                answer = _brute_answer(space, spec, live)
            expected[rid] = json.dumps(answer, sort_keys=True)
            phase.append(request(rid, spec))
        phases.append(phase)
    elif workload == "served_cold_churn":
        from repro.dynamic import DynamicObjectSet, churn_batch

        mirror = DynamicObjectSet.wrap(space, initial=CHURN_INITIAL)
        spare = list(range(CHURN_INITIAL, N))  # payloads not currently live
        per_phase = max(1, count // CHURN_PHASES)
        rid = 0
        for index in range(CHURN_PHASES):
            live = mirror.alive_ids()
            payload = {i: mirror.payload(i) for i in live}
            phase = []
            for spec in ordered(_specs(fixed, kinds, _spread(fixed, live, per_phase))):
                answer = _brute_answer(space, spec, live, payload)
                expected[rid] = json.dumps(answer, sort_keys=True)
                phase.append(request(rid, spec))
                rid += 1
            phases.append(phase)
            if index == CHURN_PHASES - 1:
                break
            batch_size = max(1, int(round(CHURN_FRACTION * len(live) / 2)))
            inserts, spare = spare[:batch_size], spare[batch_size:]
            batch = churn_batch(mirror, fraction=CHURN_FRACTION, seed=REQUEST_SEED * 1000 + index,
                                insert_payloads=inserts)
            barrier = {"batch": [], "inserted_ids": [], "removed_ids": []}
            for mut in batch:
                if mut.kind == "remove":
                    spare.append(mirror.payload(mut.obj_id))
                    mirror.remove(mut.obj_id)
                    barrier["batch"].append({"kind": "remove", "id": mut.obj_id})
                    barrier["removed_ids"].append(mut.obj_id)
                else:
                    barrier["inserted_ids"].append(mirror.insert(mut.payload))
                    barrier["batch"].append({"kind": "insert", "payload": int(mut.payload)})
            mutations.append(barrier)
    else:
        raise ValueError(f"unknown served workload {workload!r}")
    return {"phases": phases, "mutations": mutations, "expected": expected}

