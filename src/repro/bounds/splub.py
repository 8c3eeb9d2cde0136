"""SPLUB — Algorithm 1 of the paper (Shortest-Path Lower & Upper Bounds).

Produces the *tightest* bounds derivable from the known edges (Lemma 4.1):

* ``TUB(i, j) = sp(i, j)`` — the shortest path through known edges;
* ``TLB(i, j) = max over known edges (k, l) of
  d(k, l) − min(sp(i, k) + sp(j, l), sp(i, l) + sp(j, k))`` — "wrap the two
  shortest paths onto the longest edge of some path".

Each query needs Dijkstra trees from both endpoints (``O(m + n log n)``)
and a sweep over the known edges.  This implementation is *incremental*:

* Dijkstra trees (:func:`repro.bounds.kernels.sssp` over the graph's CSR
  view) are memoised per source, keyed on the graph's global edge-insert
  epoch — equal epochs mean an identical graph, so a cached tree is exact,
  and a batch of queries sharing an endpoint (``knearest(q, ·)``) pays
  **one** Dijkstra from ``q`` instead of one per pair;
* the edge sweep runs as a NumPy reduction over the graph's flat edge
  mirror (:func:`repro.bounds.kernels.splub_sweep`) instead of a Python
  loop.

Updates remain free: the shared graph's edge insert (which advances the
epoch and thereby invalidates stale trees) is all the state there is.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, Tuple

import numpy as np

from repro.bounds import kernels
from repro.core.bounds import BaseBoundProvider, Bounds
from repro.core.partial_graph import PartialDistanceGraph


def dijkstra_distances(graph: PartialDistanceGraph, source: int) -> np.ndarray:
    """Single-source shortest paths over the known edges (binary heap).

    Edge relaxation is vectorised over the graph's flat adjacency mirrors;
    the returned array holds ``inf`` for unreachable nodes.
    """
    dist = np.full(graph.n, math.inf)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        ids, weights = graph.adjacency_arrays(u)
        nd = d + weights
        improved = nd < dist[ids]
        if improved.any():
            for v, ndv in zip(ids[improved].tolist(), nd[improved].tolist()):
                dist[v] = ndv
                heappush(heap, (ndv, v))
    return dist


class Splub(BaseBoundProvider):
    """Exact tightest-bounds provider with epoch-memoised shortest paths.

    ``cache_trees=False`` restores the original per-query behaviour (two
    fresh Dijkstras per call) for ablations; bounds are identical either
    way, only :attr:`dijkstra_runs` moves.
    """

    name = "SPLUB"

    def __init__(
        self,
        graph: PartialDistanceGraph,
        max_distance: float = math.inf,
        cache_trees: bool = True,
    ) -> None:
        super().__init__(graph, max_distance)
        self.cache_trees = cache_trees
        #: Dijkstra computations actually performed (cache misses).
        self.dijkstra_runs = 0
        #: Cached trees dropped / patched in place by mutation maintenance.
        self.trees_dropped = 0
        self.trees_patched = 0
        self._tree_cache: Dict[int, Tuple[int, np.ndarray]] = {}

    def shortest_paths(self, source: int) -> np.ndarray:
        """The Dijkstra tree from ``source``, memoised on the graph epoch.

        Trees are computed by :func:`repro.bounds.kernels.sssp`, a heap
        loop over the graph's CSR view whose arrays are byte-identical to
        :func:`dijkstra_distances` over the per-node mirrors.
        """
        graph = self.graph
        if self.cache_trees:
            cached = self._tree_cache.get(source)
            if cached is not None and cached[0] == graph.epoch:
                return cached[1]
        indptr, indices, weights = graph.csr_arrays()
        dist = kernels.sssp(indptr, indices, weights, graph.n, source)
        self.dijkstra_runs += 1
        if self.cache_trees:
            self._tree_cache[source] = (graph.epoch, dist)
        return dist

    def apply_mutations(self, inserted, removed, resolver=None) -> Dict[str, int]:
        """Incrementally maintain the tree cache across a mutation batch.

        Only trees *sourced at* a mutated id are dropped.  Every surviving
        tree is patched in place — padded to the grown universe and with the
        mutated ids' entries masked to ``inf`` — then re-stamped to the
        current epoch.  The patch is sound: a stale shortest-path value is
        still a path through *true* distances, hence a valid upper bound on
        the surviving pair's distance (removal can only lengthen shortest
        paths, never invalidate old ones); only a *recycled* id's column
        refers to a dead incarnation, and those are exactly the masked ones.
        """
        mutated = set(inserted) | set(removed)
        n = self.graph.n
        epoch = self.graph.epoch
        dropped = patched = 0
        for source in list(self._tree_cache):
            _, dist = self._tree_cache[source]
            if source in mutated:
                del self._tree_cache[source]
                dropped += 1
                continue
            if dist.shape[0] < n:
                dist = np.concatenate([dist, np.full(n - dist.shape[0], math.inf)])
            else:
                dist = dist.copy()
            for node in mutated:
                if node < dist.shape[0]:
                    dist[node] = math.inf
            self._tree_cache[source] = (epoch, dist)
            patched += 1
        self.trees_dropped += dropped
        self.trees_patched += patched
        return {"splub_trees_dropped": dropped, "splub_trees_patched": patched}

    def bounds(self, i: int, j: int) -> Bounds:
        if i == j:
            return Bounds(0.0, 0.0)
        known = self.graph.get(i, j)
        if known is not None:
            return Bounds(known, known)
        sp_i = self.shortest_paths(i)
        sp_j = self.shortest_paths(j)
        ub = min(float(sp_i[j]), self.max_distance)
        lb = 0.0
        k_ids, l_ids, weights = self.graph.edge_arrays()
        if weights.size:
            # weights − inf = −inf, so unreachable detours never win the max.
            candidate = kernels.splub_sweep(sp_i, sp_j, k_ids, l_ids, weights)
            if candidate > lb:
                lb = candidate
        if lb > ub:
            lb = ub
        return Bounds(lb, ub)
