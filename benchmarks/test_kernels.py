"""Kernel acceptance benchmarks — the CSR frontier sweep and the approximate mode.

Two acceptance experiments for the CSR kernel layer
(:mod:`repro.bounds.kernels`):

* the Tri frontier sweep at ``n = 2000`` must return bounds byte-identical
  to per-pair queries (its wall time is recorded for the trend gate), and
  a host algorithm run with or without the sweep must produce identical
  oracle-call counts and resolved-edge sequences;
* the approximate resolver mode at ``stretch = 1.5`` must cut oracle calls
  by at least **40%** on a kNN-graph build over LAESA landmark bounds, with
  the realised stretch of every accepted answer within budget (the
  ``repro_answer_stretch`` histogram never exceeds it).

Set ``KERNELS_BENCH_JSON`` to a path to dump the raw measurements for
``scripts/bench_to_json.py`` (CI turns them into ``BENCH_kernels.json``).
"""

import json
import math
import os
import time

import numpy as np

from repro.bounds import tri as tri_module
from repro.bounds.tri import TriScheme
from repro.core.partial_graph import PartialDistanceGraph
from repro.core.resolver import SmartResolver
from repro.datasets import sf_poi_space
from repro.harness import render_table
from repro.harness.runner import ALGORITHMS, run_experiment
from repro.obs import MetricsRegistry

N_FRONTIER = 2000
M_FRONTIER = 80_000

STRETCH = 1.5
STRETCH_N = 300
STRETCH_LANDMARKS = 150
SAVINGS_FLOOR_PCT = 40.0

_RAW: dict = {}


def _dump_raw():
    path = os.environ.get("KERNELS_BENCH_JSON")
    if path and _RAW:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_RAW, fh, indent=2, sort_keys=True)


def _random_edge_graph(n, m, seed):
    """A partial graph holding ``m`` random resolved Euclidean edges."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    graph = PartialDistanceGraph(n)
    seen = set()
    while len(seen) < m:
        i, j = (int(v) for v in rng.integers(0, n, 2))
        key = (min(i, j), max(i, j))
        if i != j and key not in seen:
            seen.add(key)
            graph.add_edge(i, j, float(np.linalg.norm(pts[i] - pts[j])))
    return graph


def _best_of(fn, reps=5):
    """Min-of-``reps`` wall time — the noise-robust benchmark statistic."""
    best = math.inf
    out = None
    for _ in range(reps):
        started = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - started)
    return out, best


def test_frontier_sweep_identical_to_per_pair(report, monkeypatch):
    graph = _random_edge_graph(N_FRONTIER, M_FRONTIER, seed=5)
    tri = TriScheme(graph, max_distance=2.0)
    others = [c for c in range(1, N_FRONTIER) if graph.get(0, c) is None]

    tri._bounds_frontier(0, others)
    csr, csr_s = _best_of(lambda: tri._bounds_frontier(0, others))
    per_pair = [tri.bounds(0, c) for c in others]
    assert csr == per_pair, "CSR sweep must be byte-identical to per-pair bounds"

    # The sweep must be invisible to the host algorithm: same oracle
    # charges, same resolved edges in the same order.
    def run_prim(frontier_min_pairs):
        monkeypatch.setattr(tri_module, "_FRONTIER_MIN_PAIRS", frontier_min_pairs)
        space = sf_poi_space(n=200, road=False)
        oracle = space.oracle()
        resolver = SmartResolver(oracle)
        resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
        ALGORITHMS["prim"](resolver)
        i, j, w = resolver.graph.edge_arrays()
        return oracle.calls, list(zip(i.tolist(), j.tolist(), w.tolist()))

    default_min_pairs = tri_module._FRONTIER_MIN_PAIRS
    calls_pairs, edges_pairs = run_prim(math.inf)
    calls_csr, edges_csr = run_prim(default_min_pairs)
    assert calls_pairs == calls_csr
    assert edges_pairs == edges_csr

    report(
        render_table(
            ["kernel", "sweep (ms)", "prim oracle calls"],
            [
                ["per-pair", "-", calls_pairs],
                ["csr frontier", round(csr_s * 1e3, 2), calls_csr],
            ],
            title=f"Tri frontier sweep, n={N_FRONTIER}, m={M_FRONTIER}",
        )
    )
    _RAW.update(
        {
            "frontier_n": N_FRONTIER,
            "frontier_edges": M_FRONTIER,
            "frontier_csr_seconds": csr_s,
        }
    )
    _dump_raw()


def test_stretch_1_5_cuts_oracle_calls_40pct(report):
    space = sf_poi_space(n=STRETCH_N, road=False)
    registry = MetricsRegistry()
    exact = run_experiment(
        space, "knng", "laesa", num_landmarks=STRETCH_LANDMARKS,
        algorithm_kwargs={"k": 6}, stretch=1.0,
    )
    approx = run_experiment(
        space, "knng", "laesa", num_landmarks=STRETCH_LANDMARKS,
        algorithm_kwargs={"k": 6}, stretch=STRETCH, registry=registry,
    )
    savings = 100.0 * (1 - approx.algorithm_calls / exact.algorithm_calls)
    assert savings >= SAVINGS_FLOOR_PCT, (
        f"stretch={STRETCH} saved only {savings:.1f}% of algorithm-phase "
        f"oracle calls (floor {SAVINGS_FLOOR_PCT}%)"
    )

    # Every accepted estimate's realised stretch stays within budget: all
    # histogram observations land at or below the budget bucket boundary.
    snapshot = registry.snapshot()
    total = snapshot["repro_answer_stretch_count"]
    within = snapshot[f'repro_answer_stretch_bucket{{le="{STRETCH}"}}']
    assert total > 0, "approximate mode accepted no answers"
    assert within == total, (
        f"{total - within} answers exceeded the stretch budget {STRETCH}"
    )

    report(
        render_table(
            ["stretch", "algorithm calls", "approx answers", "savings %"],
            [
                [1.0, exact.algorithm_calls, 0, 0.0],
                [STRETCH, approx.algorithm_calls, int(total), round(savings, 1)],
            ],
            title=f"kNN-graph (k=6) on sf n={STRETCH_N}, "
            f"LAESA L={STRETCH_LANDMARKS}",
        )
    )
    _RAW.update(
        {
            "stretch_budget": STRETCH,
            "stretch_n": STRETCH_N,
            "stretch_landmarks": STRETCH_LANDMARKS,
            "stretch_exact_calls": exact.algorithm_calls,
            "stretch_approx_calls": approx.algorithm_calls,
            "stretch_savings_pct": savings,
            "stretch_approx_answers": int(total),
        }
    )
    _dump_raw()
