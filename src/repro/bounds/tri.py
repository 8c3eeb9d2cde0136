"""Tri Scheme — Algorithm 2 of the paper.

Bounds an unknown edge ``(i, j)`` using only the *triangles* incident on it:
for every common known neighbour ``w`` of ``i`` and ``j``,

    |d(i, w) − d(j, w)|  <=  d(i, j)  <=  d(i, w) + d(j, w).

Triangles are enumerated by a sorted-merge intersection of the two
endpoints' adjacency lists (the paper uses balanced BSTs; we use sorted
arrays — see ``PartialDistanceGraph``).  Expected query cost is ``O(m/n)``
(Theorem 4.2); the update is the graph's ``O(log n)`` adjacency insert, so
:meth:`notify_resolved` is a no-op here.

Two per-pair kernels and one frontier sweep compute the reduction:

* :meth:`TriScheme._bounds_loop` — the per-triangle Python loop, the
  reference and the fastest choice for low-degree endpoints;
* :meth:`TriScheme._bounds_vector` — a ``np.searchsorted`` intersection
  over the graph's per-node adjacency mirrors followed by array
  ``|diw − djw|`` / ``diw + djw`` reductions;
* the *frontier* sweep — when a batch of at least
  ``_FRONTIER_MIN_PAIRS`` unknown pairs shares one endpoint ``u``
  (``knearest(u, ·)`` / ``argmin(u, ·)`` frontiers do), one
  :func:`repro.bounds.kernels.tri_frontier` call over the graph's CSR view
  answers every pair.

All kernels perform the identical IEEE-754 elementwise operations and
order-independent min/max reductions, so they return identical ``Bounds``
and count identical ``triangles_inspected``.  :meth:`bounds` picks the
per-pair kernel by endpoint degree (the array kernel only wins once the
intersected lists are long enough to amortise NumPy call overhead), and
:meth:`bounds_many` sends large shared-endpoint batches through the
frontier sweep.  Small frontiers stay per-pair: they would otherwise
rebuild the whole-graph CSR view after every resolved edge.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds import kernels
from repro.core.bounds import BaseBoundProvider, Bounds
from repro.core.partial_graph import PartialDistanceGraph

#: Minimum endpoint degree (of both endpoints) before a single-pair query
#: switches from the scalar loop to the vectorised kernel.
_VECTOR_MIN_DEGREE = 32

#: Minimum number of unknown shared-endpoint pairs before a batch runs
#: through the CSR frontier sweep instead of per-pair queries.
_FRONTIER_MIN_PAIRS = 8


class TriScheme(BaseBoundProvider):
    """Triangle-neighbourhood bound provider (the paper's practical choice).

    ``relaxation`` supports the paper's *relaxed* triangle inequality
    ``d(x, z) <= c · (d(x, y) + d(y, z))`` (c >= 1): per common neighbour
    ``w`` the derived bounds become

        max(d(i,w)/c − d(j,w), d(j,w)/c − d(i,w))  <=  d(i, j)
        d(i, j)  <=  c · (d(i,w) + d(j,w))

    which reduce to the standard forms at ``c = 1``.  Squared Euclidean
    distance, for example, is a 2-relaxed metric.
    """

    name = "Tri"
    vectorized_bounds = True

    def __init__(
        self,
        graph: PartialDistanceGraph,
        max_distance: float = math.inf,
        relaxation: float = 1.0,
    ) -> None:
        super().__init__(graph, max_distance)
        if relaxation < 1.0:
            raise ValueError("relaxation factor must be >= 1")
        self.relaxation = float(relaxation)
        self.triangles_inspected = 0

    def bounds(self, i: int, j: int) -> Bounds:
        if i == j:
            return Bounds(0.0, 0.0)
        known = self.graph.get(i, j)
        if known is not None:
            return Bounds(known, known)
        if min(self.graph.degree(i), self.graph.degree(j)) >= _VECTOR_MIN_DEGREE:
            return self._bounds_vector(i, j)
        return self._bounds_loop(i, j)

    def bounds_many(self, pairs: Iterable[Tuple[int, int]]) -> List[Bounds]:
        """Batch query, element-for-element identical to per-pair queries.

        A batch of at least ``_FRONTIER_MIN_PAIRS`` unknown pairs that all
        share one endpoint (a ``knearest``/``argmin`` frontier) runs as one
        CSR frontier sweep; every other pair takes the same per-pair
        dispatch :meth:`bounds` uses.
        """
        pairs = list(pairs)
        out: List[Optional[Bounds]] = [None] * len(pairs)
        graph = self.graph
        todo: List[int] = []
        for idx, (i, j) in enumerate(pairs):
            if i == j:
                out[idx] = Bounds(0.0, 0.0)
                continue
            known = graph.get(i, j)
            if known is not None:
                out[idx] = Bounds(known, known)
                continue
            todo.append(idx)
        shared = None
        if len(todo) >= _FRONTIER_MIN_PAIRS:
            shared = self._shared_endpoint([pairs[idx] for idx in todo])
        if shared is not None:
            others = [
                pairs[idx][1] if pairs[idx][0] == shared else pairs[idx][0]
                for idx in todo
            ]
            for idx, b in zip(todo, self._bounds_frontier(shared, others)):
                out[idx] = b
        else:
            for idx in todo:
                i, j = pairs[idx]
                if min(graph.degree(i), graph.degree(j)) >= _VECTOR_MIN_DEGREE:
                    out[idx] = self._bounds_vector(i, j)
                else:
                    out[idx] = self._bounds_loop(i, j)
        return out

    @staticmethod
    def _shared_endpoint(pairs: Sequence[Tuple[int, int]]) -> Optional[int]:
        """The node present in every pair, or None."""
        cand_a, cand_b = pairs[0]
        for i, j in pairs:
            if cand_a != i and cand_a != j:
                cand_a = -1
            if cand_b != i and cand_b != j:
                cand_b = -1
            if cand_a < 0 and cand_b < 0:
                return None
        return cand_a if cand_a >= 0 else cand_b

    # -- kernels ------------------------------------------------------------

    def _bounds_loop(self, i: int, j: int) -> Bounds:
        lb = 0.0
        ub = self.max_distance
        weight = self.graph.weight
        c = self.relaxation
        if c == 1.0:
            for w in self.graph.common_neighbors(i, j):
                self.triangles_inspected += 1
                diw = weight(i, w)
                djw = weight(j, w)
                gap = diw - djw
                if gap < 0:
                    gap = -gap
                if gap > lb:
                    lb = gap
                total = diw + djw
                if total < ub:
                    ub = total
        else:
            for w in self.graph.common_neighbors(i, j):
                self.triangles_inspected += 1
                diw = weight(i, w)
                djw = weight(j, w)
                gap = max(diw / c - djw, djw / c - diw)
                if gap > lb:
                    lb = gap
                total = c * (diw + djw)
                if total < ub:
                    ub = total
        if lb > ub:
            # Only possible through floating-point jitter on a true metric.
            lb = ub
        return Bounds(lb, ub)

    def _bounds_vector(self, i: int, j: int) -> Bounds:
        ids_i, weights_i = self.graph.adjacency_arrays(i)
        ids_j, weights_j = self.graph.adjacency_arrays(j)
        if ids_i.size == 0 or ids_j.size == 0:
            return Bounds(0.0, self.max_distance)
        # Probe the shorter sorted-unique list into the longer one — cheaper
        # than np.intersect1d's concatenate-and-sort for these sizes.
        if ids_i.size < ids_j.size:
            short_ids, short_w, long_ids, long_w = ids_i, weights_i, ids_j, weights_j
        else:
            short_ids, short_w, long_ids, long_w = ids_j, weights_j, ids_i, weights_i
        slots = long_ids.searchsorted(short_ids)
        # mode="clip" maps the one possible out-of-range slot onto the last
        # element, which cannot match (its probe value is strictly larger).
        matched = long_ids.take(slots, mode="clip") == short_ids
        count = int(matched.sum())
        self.triangles_inspected += count
        if count == 0:
            return Bounds(0.0, self.max_distance)
        diw = short_w[matched]
        djw = long_w[slots[matched]]
        c = self.relaxation
        if c == 1.0:
            lb = float(np.abs(diw - djw).max())
            ub = float((diw + djw).min())
        else:
            # min(c·(x+y)) == c·min(x+y): scaling by a positive constant is
            # monotone under IEEE-754 rounding, so the minimising triangle's
            # value is bit-identical to the scalar loop's.
            lb = float(np.maximum(diw / c - djw, djw / c - diw).max())
            ub = c * float((diw + djw).min())
        if lb < 0.0:
            lb = 0.0
        if ub > self.max_distance:
            ub = self.max_distance
        if lb > ub:
            lb = ub
        return Bounds(lb, ub)

    def _bounds_frontier(self, u: int, others: Sequence[int]) -> List[Bounds]:
        """Bounds for every unknown pair ``(u, c)`` in one CSR sweep.

        Runs :func:`repro.bounds.kernels.tri_frontier` over the graph's CSR
        view; the bounds and triangle count are byte-identical to the
        per-pair kernels'.
        """
        graph = self.graph
        indptr, indices, weights = graph.csr_arrays()
        lbs, ubs, triangles = kernels.tri_frontier(
            indptr,
            indices,
            weights,
            graph.n,
            u,
            np.asarray(others, dtype=np.int64),
            self.max_distance,
            self.relaxation,
        )
        self.triangles_inspected += int(triangles)
        # The kernel clamps to 0 <= lb <= ub <= cap, so validation can be
        # skipped — constructing ~|others| frozen dataclasses through
        # __init__ would otherwise dominate the sweep.
        return Bounds.list_from_arrays(lbs, ubs)
