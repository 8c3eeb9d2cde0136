"""Reusable experiment definitions behind every table and figure.

Each function reproduces the measurement protocol of one (or one family of)
paper artifact(s); the ``benchmarks/`` tree wires them to concrete sizes and
prints the resulting rows.  DESIGN.md §4 maps artifacts to functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.bounds.landmarks import default_num_landmarks
from repro.core.resolver import SmartResolver
from repro.harness.providers import make_provider
from repro.harness.runner import ExperimentRecord, percentage_save, run_experiment
from repro.spaces.base import MetricSpace


# ---------------------------------------------------------------------------
# Bound quality (Figures 3a, 3b, 3c, 5a)
# ---------------------------------------------------------------------------

@dataclass
class BoundQualityResult:
    """Per-provider bound tightness, query-time, and update-time measurements."""

    provider: str
    mean_lower: float
    mean_upper: float
    mean_gap: float
    rel_err_lower_vs_adm: float
    rel_err_upper_vs_adm: float
    mean_query_seconds: float
    update_seconds: float
    queries: int


def bounds_quality_experiment(
    space: MetricSpace,
    num_edges: int,
    num_queries: int = 200,
    providers: Sequence[str] = ("splub", "tri", "laesa", "tlaesa", "adm"),
    num_landmarks: Optional[int] = None,
    seed: int = 0,
) -> List[BoundQualityResult]:
    """Measure bound tightness, query time, and update time per provider.

    Protocol (mirrors Figures 3a/3c/5a): the graph providers (SPLUB, Tri,
    ADM) share a partial graph of ``num_edges`` random resolutions — the
    state a proximity algorithm leaves behind — while the landmark providers
    (LAESA, TLAESA) hold their own separately resolved ``L × n`` matrix,
    exactly the information structure each scheme maintains in a real run.
    Relative errors are measured against ADM's exact tightest bounds.
    Update time is the cost of replaying all ``num_edges`` resolutions
    through the provider's ``notify_resolved`` (Problem 2 of the paper).
    """
    from repro.core.partial_graph import PartialDistanceGraph

    n = space.n
    num_landmarks = num_landmarks or default_num_landmarks(n)
    max_distance = space.diameter_bound()

    # Ground state: the landmark bootstrap plus random algorithm-style
    # resolutions — the graph a bootstrapped proximity-algorithm run holds.
    from repro.bounds.landmarks import resolve_landmark_matrix, select_landmarks_maxmin

    rng = np.random.default_rng(seed)
    base_oracle = space.oracle()
    base = SmartResolver(base_oracle)
    landmarks = select_landmarks_maxmin(base, min(num_landmarks, n))
    matrix = resolve_landmark_matrix(base, landmarks)
    limit = n * (n - 1) // 2
    while base.graph.num_edges < min(num_edges, limit):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i != j:
            base.distance(i, j)
    edge_list = list(base.graph.edges())

    instances = {}
    update_times = {}
    for name in providers:
        if name in ("laesa", "tlaesa"):
            # Landmark schemes: empty graph + adopted matrix; their update
            # cost is the (cheap) matrix-cell refresh over the same edges.
            graph = PartialDistanceGraph(n)
            provider = make_provider(name, graph, max_distance)
            provider.adopt(landmarks, matrix.copy())
            start = time.perf_counter()
            for i, j, w in edge_list:
                graph.add_edge(i, j, w)
                provider.notify_resolved(i, j, w)
            update_times[name] = time.perf_counter() - start
        else:
            # Graph schemes: replay the resolutions through notify_resolved.
            graph = PartialDistanceGraph(n)
            provider = make_provider(name, graph, max_distance)
            start = time.perf_counter()
            for i, j, w in edge_list:
                graph.add_edge(i, j, w)
                provider.notify_resolved(i, j, w)
            update_times[name] = time.perf_counter() - start
        instances[name] = provider
    if "adm" in instances:
        reference = instances["adm"]
    else:
        reference = make_provider("adm", base.graph, max_distance)

    query_rng = np.random.default_rng(seed + 1)
    queries: List[tuple[int, int]] = []
    attempts = 0
    while len(queries) < num_queries and attempts < 100 * num_queries:
        attempts += 1
        i = int(query_rng.integers(n))
        j = int(query_rng.integers(n))
        if i != j and not base.graph.has_edge(i, j):
            queries.append((i, j))

    reference_bounds = [reference.bounds(i, j) for i, j in queries]
    results = []
    for name, provider in instances.items():
        start = time.perf_counter()
        produced = [provider.bounds(i, j) for i, j in queries]
        elapsed = time.perf_counter() - start
        lowers = np.array([b.lower for b in produced])
        uppers = np.array([min(b.upper, max_distance) for b in produced])
        ref_low = np.array([b.lower for b in reference_bounds])
        ref_up = np.array([b.upper for b in reference_bounds])
        scale = np.maximum(ref_up.mean(), 1e-12)
        results.append(
            BoundQualityResult(
                provider=name,
                mean_lower=float(lowers.mean()),
                mean_upper=float(uppers.mean()),
                mean_gap=float((uppers - lowers).mean()),
                rel_err_lower_vs_adm=float(np.abs(lowers - ref_low).mean() / scale),
                rel_err_upper_vs_adm=float(np.abs(uppers - ref_up).mean() / scale),
                mean_query_seconds=elapsed / max(len(queries), 1),
                update_seconds=update_times[name],
                queries=len(queries),
            )
        )
    return results


def tri_gap_vs_edges(
    space: MetricSpace,
    edge_counts: Sequence[int],
    num_queries: int = 200,
    seed: int = 0,
) -> List[dict]:
    """Figure 3b: Tri Scheme LB/UB gap as the known-edge count grows."""
    rows = []
    for num_edges in edge_counts:
        results = bounds_quality_experiment(
            space,
            num_edges,
            num_queries=num_queries,
            providers=("tri",),
            seed=seed,
        )
        tri = results[0]
        rows.append(
            {
                "edges": num_edges,
                "mean_lb": tri.mean_lower,
                "mean_ub": tri.mean_upper,
                "gap": tri.mean_gap,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Prim oracle-call tables (Tables 2 and 3) and generic size sweeps (Fig 6-7)
# ---------------------------------------------------------------------------

@dataclass
class PrimTableRow:
    """One size row of Table 2/3."""

    num_edges: int
    without_plug: int
    ts_nb: int
    bootstrap: int
    tri_scheme: int
    laesa: int
    tlaesa: int
    num_landmarks: int

    @property
    def save_vs_laesa(self) -> float:
        """Paper convention: LAESA total vs Tri's algorithm-phase calls."""
        return percentage_save(self.laesa, self.tri_scheme)

    @property
    def save_vs_tlaesa(self) -> float:
        """Paper convention: TLAESA total vs Tri's algorithm-phase calls."""
        return percentage_save(self.tlaesa, self.tri_scheme)


def prim_call_table(
    space_factory: Callable[[int], MetricSpace],
    sizes: Sequence[int],
    algorithm: str = "prim",
    algorithm_kwargs: Optional[Dict[str, Any]] = None,
) -> List[PrimTableRow]:
    """Tables 2/3: oracle calls of Prim's under every scheme, per size.

    ``space_factory(n)`` builds the dataset at each size; landmark budgets
    follow the paper's ``log2(n)``.
    """
    rows = []
    for n in sizes:
        space = space_factory(n)
        landmarks = default_num_landmarks(n)
        without = run_experiment(space, algorithm, "none", algorithm_kwargs=algorithm_kwargs)
        ts_nb = run_experiment(space, algorithm, "tri", algorithm_kwargs=algorithm_kwargs)
        tri_boot = run_experiment(
            space,
            algorithm,
            "tri",
            landmark_bootstrap=True,
            num_landmarks=landmarks,
            algorithm_kwargs=algorithm_kwargs,
        )
        laesa = run_experiment(
            space, algorithm, "laesa", num_landmarks=landmarks, algorithm_kwargs=algorithm_kwargs
        )
        tlaesa = run_experiment(
            space, algorithm, "tlaesa", num_landmarks=landmarks, algorithm_kwargs=algorithm_kwargs
        )
        rows.append(
            PrimTableRow(
                num_edges=n * (n - 1) // 2,
                without_plug=without.total_calls,
                ts_nb=ts_nb.total_calls,
                bootstrap=tri_boot.bootstrap_calls,
                tri_scheme=tri_boot.algorithm_calls,
                laesa=laesa.total_calls,
                tlaesa=tlaesa.total_calls,
                num_landmarks=landmarks,
            )
        )
    return rows


def size_sweep(
    space_factory: Callable[[int], MetricSpace],
    sizes: Sequence[int],
    algorithm: str,
    providers: Sequence[str] = ("tri", "laesa", "tlaesa"),
    algorithm_kwargs: Optional[Dict[str, Any]] = None,
    landmark_bootstrap_for: Sequence[str] = ("tri",),
) -> Dict[str, List[ExperimentRecord]]:
    """Figures 6a-6d, 7a-7c: total oracle calls per provider across sizes."""
    out: Dict[str, List[ExperimentRecord]] = {p: [] for p in providers}
    for n in sizes:
        space = space_factory(n)
        for provider in providers:
            record = run_experiment(
                space,
                algorithm,
                provider,
                landmark_bootstrap=provider in landmark_bootstrap_for,
                algorithm_kwargs=algorithm_kwargs,
            )
            out[provider].append(record)
    return out


# ---------------------------------------------------------------------------
# Completion time under priced oracles (Figures 7d, 8a, 8b)
# ---------------------------------------------------------------------------

def oracle_cost_sweep(
    space: MetricSpace,
    algorithm: str,
    oracle_costs: Sequence[float],
    providers: Sequence[str] = ("tri", "laesa", "tlaesa"),
    algorithm_kwargs: Optional[Dict[str, Any]] = None,
    landmark_bootstrap_for: Sequence[str] = ("tri",),
) -> Dict[str, List[float]]:
    """Completion time (CPU + priced oracle) as the per-call cost grows.

    Each provider runs once; completion times at every price point are
    reconstructed from the measured CPU time and call count — the identical
    arithmetic behind the paper's wall-clock figures.
    """
    out: Dict[str, List[float]] = {}
    for provider in providers:
        record = run_experiment(
            space,
            algorithm,
            provider,
            landmark_bootstrap=provider in landmark_bootstrap_for,
            algorithm_kwargs=algorithm_kwargs,
        )
        out[provider] = [record.completion_at(cost) for cost in oracle_costs]
    return out


# ---------------------------------------------------------------------------
# Parameter sweeps (Figures 8c, 8d, 9a-9d)
# ---------------------------------------------------------------------------

def parameter_sweep(
    space: MetricSpace,
    algorithm: str,
    param_name: str,
    param_values: Sequence[Any],
    providers: Sequence[str] = ("tri", "laesa", "tlaesa"),
    base_kwargs: Optional[Dict[str, Any]] = None,
    landmark_bootstrap_for: Sequence[str] = ("tri",),
) -> Dict[str, List[ExperimentRecord]]:
    """Vary one host-algorithm parameter (``l`` or ``k``) per provider."""
    out: Dict[str, List[ExperimentRecord]] = {p: [] for p in providers}
    for value in param_values:
        kwargs = dict(base_kwargs or {})
        kwargs[param_name] = value
        for provider in providers:
            record = run_experiment(
                space,
                algorithm,
                provider,
                landmark_bootstrap=provider in landmark_bootstrap_for,
                algorithm_kwargs=kwargs,
            )
            out[provider].append(record)
    return out


# ---------------------------------------------------------------------------
# Landmark-count sensitivity (Figure 5b)
# ---------------------------------------------------------------------------

def landmark_count_sweep(
    space: MetricSpace,
    algorithm: str,
    landmark_counts: Sequence[int],
    providers: Sequence[str] = ("laesa", "tlaesa"),
    algorithm_kwargs: Optional[Dict[str, Any]] = None,
) -> Dict[str, List[ExperimentRecord]]:
    """Figure 5b: total calls as a function of the landmark budget."""
    out: Dict[str, List[ExperimentRecord]] = {p: [] for p in providers}
    for count in landmark_counts:
        for provider in providers:
            record = run_experiment(
                space,
                algorithm,
                provider,
                num_landmarks=count,
                landmark_bootstrap=provider not in ("laesa", "tlaesa"),
                algorithm_kwargs=algorithm_kwargs,
            )
            out[provider].append(record)
    return out


# ---------------------------------------------------------------------------
# DFT (Figures 4a, 4b)
# ---------------------------------------------------------------------------

def dft_experiment(
    space_factory: Callable[[int], MetricSpace],
    sizes: Sequence[int],
    providers: Sequence[str] = ("dft", "adm", "adm-inc", "none"),
    algorithm: str = "prim-cmp",
) -> Dict[str, List[ExperimentRecord]]:
    """Figure 4: DFT vs ADM on comparison-driven Prim over tiny graphs."""
    out: Dict[str, List[ExperimentRecord]] = {p: [] for p in providers}
    for n in sizes:
        space = space_factory(n)
        for provider in providers:
            out[provider].append(run_experiment(space, algorithm, provider))
    return out
