"""k-nearest-neighbour graph construction for expensive distance oracles.

The paper plugs its framework into KNNrp (Paredes et al. 2006), a practical
metric kNNG builder.  The host algorithm's re-authorable core is the same
in every exact metric kNNG method: while scanning candidates for node ``u``
it repeatedly executes

    if dist(u, v) < dist(u, w_k):   # w_k = current k-th nearest
        update the neighbour heap

The builder here keeps that exact loop and routes it through the resolver:
candidates are visited in ascending lower-bound order, and any candidate
whose lower bound already meets the running k-th-best distance is pruned.
Because nodes are processed sequentially over a *shared* partial graph, each
resolved distance enriches the bound provider for all later nodes — the
symmetric "use the graph you have built so far" trick KNNrp exploits.

``knn_graph_brute`` is the vanilla baseline (full scan, no pruning).
"""

from __future__ import annotations

from repro.algorithms.base import KnnGraphResult
from repro.core.resolver import SmartResolver


def knn_graph(resolver: SmartResolver, k: int = 5) -> KnnGraphResult:
    """Exact kNN graph with lower-bound pruning per candidate scan."""
    n = resolver.oracle.n
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}]; got {k}")
    universe = list(range(n))
    rows = []
    for u in range(n):
        neighbours = resolver.knearest(u, universe, k)
        rows.append(tuple(neighbours))
    return KnnGraphResult(neighbors=tuple(rows), k=k)


def knn_graph_brute(resolver: SmartResolver, k: int = 5) -> KnnGraphResult:
    """Vanilla kNN graph: resolve every pair, then sort (the baseline)."""
    n = resolver.oracle.n
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}]; got {k}")
    rows = []
    for u in range(n):
        # The scan below needs the whole row; fetch it as one batch.
        resolver.resolve_many((u, v) for v in range(n) if v != u)
        scored = sorted(
            (resolver.distance(u, v), v) for v in range(n) if v != u
        )
        rows.append(tuple(scored[:k]))
    return KnnGraphResult(neighbors=tuple(rows), k=k)
