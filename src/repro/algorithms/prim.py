"""Prim's MST algorithm, re-authored for expensive distance oracles.

The vanilla algorithm, run over the *complete* distance graph, resolves
every pair: after adding node ``u`` to the tree it scans every outside node
``v`` and executes

    if dist(u, v) < key[v]: key[v] = dist(u, v)

— one oracle call per scan.  The re-authored version asks the resolver's
bound machinery first: when ``LB(u, v) >= key[v]`` the candidate provably
cannot improve the key and the oracle call is skipped.  Keys are only ever
*written* from resolved (exact) distances, so the key evolution — and hence
the produced tree — is identical to the vanilla run.
"""

from __future__ import annotations

import math

from repro.algorithms.base import MstResult
from repro.core.resolver import SmartResolver


def prim_mst(resolver: SmartResolver, root: int = 0) -> MstResult:
    """Exact MST over the complete metric graph with bound pruning.

    Parameters
    ----------
    resolver:
        The comparison engine; its bound provider determines how many oracle
        calls get saved (a :class:`TrivialBounder` reproduces vanilla Prim).
    root:
        Object the tree grows from.
    """
    n = resolver.oracle.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} objects")
    in_tree = [False] * n
    key = [math.inf] * n
    parent = [-1] * n
    key[root] = 0.0

    edges: list[tuple[int, int, float]] = []
    total = 0.0
    for _ in range(n):
        # Extract-min over the frontier (first index wins ties, like the
        # textbook array implementation).
        u = -1
        best = math.inf
        for v in range(n):
            if not in_tree[v] and key[v] < best:
                best = key[v]
                u = v
        if u < 0:
            raise ValueError("graph disconnected — metric spaces never are")
        in_tree[u] = True
        if parent[u] >= 0:
            edges.append((parent[u], u, key[u]))
            total += key[u]
        for v in range(n):
            if in_tree[v]:
                continue
            # Re-authored IF: prune when the lower bound already proves
            # dist(u, v) >= key[v]; otherwise resolve and compare exactly.
            if resolver.is_at_least(u, v, key[v]):
                continue
            d = resolver.distance(u, v)
            if d < key[v]:
                key[v] = d
                parent[v] = u
    return MstResult(edges=tuple(edges), total_weight=total)


def prim_mst_comparisons(resolver: SmartResolver, root: int = 0) -> MstResult:
    """Comparison-driven Prim: no numeric keys, only pairwise distance ``IF``s.

    This variant phrases *every* decision — both the candidate update and
    the extract-min — as a comparison between two (possibly unknown)
    distances, ``dist(u, v) < dist(cand[v], v)``.  That is the formulation
    under which the Direct Feasibility Test outperforms pure bound schemes:
    the LP can certify an ordering between two unknown distances *jointly*,
    which no independent lower/upper-bound pair can.  Only the ``n − 1``
    accepted edges are ever resolved for their numeric weight.

    The output matches :func:`prim_mst` exactly (first-index tie-breaking).
    """
    n = resolver.oracle.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} objects")
    in_tree = [False] * n
    in_tree[root] = True
    # cand[v] = best-known tree endpoint for outside node v.
    cand = [root] * n

    edges: list[tuple[int, int, float]] = []
    total = 0.0
    for _ in range(n - 1):
        # Extract-min by comparisons over the frontier.
        best = -1
        for v in range(n):
            if in_tree[v]:
                continue
            if best < 0:
                best = v
                continue
            if resolver.less((cand[v], v), (cand[best], best)):
                best = v
        weight = resolver.distance(cand[best], best)
        edges.append((cand[best], best, weight))
        total += weight
        in_tree[best] = True
        u = best
        for v in range(n):
            if in_tree[v] or cand[v] == u:
                continue
            if resolver.less((u, v), (cand[v], v)):
                cand[v] = u
    return MstResult(edges=tuple(edges), total_weight=total)
