"""M-tree (Ciaccia, Patella & Zezula 1997) — related-work comparator.

The balanced, disk-oriented metric index from the paper's §6: objects live
in leaf nodes; every routing (internal) entry stores a pivot object, a
covering radius, and its distance to the parent pivot, enabling two pruning
rules during search:

* ball pruning — skip a subtree when ``d(q, pivot) − radius > tau``;
* parent-distance pruning — skip computing ``d(q, pivot)`` at all when
  ``|d(q, parent) − d(parent, pivot)| − radius > tau`` (this is the rule
  that saves oracle calls, using only precomputed distances).

This implementation keeps the classic insert-and-split construction with
the `mM_RAD` promotion heuristic simplified to random promotion plus
generalised-hyperplane partitioning, which preserves the index's search
behaviour while staying readable.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.oracle import DistanceOracle

#: Relative slack applied to every pruning comparison.  The triangle
#: inequality holds in real arithmetic but stored distances are rounded —
#: shortest-path closures in particular satisfy it with *equality*, where
#: ``|d(q,p) − d(p,e)|`` computed in floats can exceed the true
#: ``d(q,e)`` by a few ulps and a strict comparison would prune a subtree
#: whose member sits exactly on the boundary.  Pruning less is always
#: sound, so the slack keeps results exact at the cost of (vanishingly
#: few) extra oracle calls.
_PRUNE_SLACK = 1e-9


class _Entry:
    """One slot of a node: an object (leaf) or a child router (internal)."""

    __slots__ = ("obj", "parent_distance", "radius", "child")

    def __init__(
        self,
        obj: int,
        parent_distance: float = 0.0,
        radius: float = 0.0,
        child: Optional["_Node"] = None,
    ) -> None:
        self.obj = obj
        self.parent_distance = parent_distance
        self.radius = radius
        self.child = child


class _Node:
    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.entries: List[_Entry] = []
        self.is_leaf = is_leaf


class MTree:
    """Balanced metric index over a distance oracle.

    Parameters
    ----------
    oracle:
        Distance oracle over object ids; construction and queries charge it.
    objects:
        Ids to index (defaults to the whole universe).
    capacity:
        Maximum entries per node before a split.
    rng:
        Generator for promotion sampling (deterministic by default).
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        objects: Optional[List[int]] = None,
        capacity: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.oracle = oracle
        self._capacity = capacity
        self._rng = rng or np.random.default_rng(0)
        self._root = _Node(is_leaf=True)
        self._size = 0
        before = oracle.calls
        for obj in objects if objects is not None else range(oracle.n):
            self.insert(obj)
        #: Oracle calls spent constructing the index.
        self.construction_calls = oracle.calls - before

    def __len__(self) -> int:
        return self._size

    # -- construction -----------------------------------------------------

    def insert(self, obj: int) -> None:
        """Insert one object, splitting nodes on overflow."""
        split = self._insert_into(self._root, obj, parent_pivot=None)
        if split is not None:
            # Root overflow: grow a new root referencing the two halves.
            (p1, n1, r1), (p2, n2, r2) = split
            new_root = _Node(is_leaf=False)
            new_root.entries.append(_Entry(p1, 0.0, r1, n1))
            new_root.entries.append(_Entry(p2, 0.0, r2, n2))
            self._root = new_root
        self._size += 1

    def _insert_into(
        self,
        node: _Node,
        obj: int,
        parent_pivot: Optional[int],
    ):
        if node.is_leaf:
            parent_distance = (
                self.oracle(parent_pivot, obj) if parent_pivot is not None else 0.0
            )
            node.entries.append(_Entry(obj, parent_distance))
            if len(node.entries) > self._capacity:
                return self._split(node)
            return None
        # Route to the child whose pivot is nearest (resolving as we go);
        # enlarge its covering radius when the object falls outside.
        best_entry = None
        best_d = math.inf
        for entry in node.entries:
            d = self.oracle(entry.obj, obj)
            if d < best_d:
                best_d = d
                best_entry = entry
        if best_d > best_entry.radius:
            best_entry.radius = best_d
        split = self._insert_into(best_entry.child, obj, best_entry.obj)
        if split is None:
            return None
        # Replace the overflowed child with the two split halves; their
        # parent distances reference this node's own routing pivot.
        (p1, n1, r1), (p2, n2, r2) = split
        node.entries.remove(best_entry)
        d1 = self.oracle(p1, parent_pivot) if parent_pivot is not None else 0.0
        node.entries.append(_Entry(p1, d1, r1, n1))
        d2 = self.oracle(p2, parent_pivot) if parent_pivot is not None else 0.0
        node.entries.append(_Entry(p2, d2, r2, n2))
        if len(node.entries) > self._capacity:
            return self._split(node)
        return None

    def _split(self, node: _Node):
        """Random promotion + generalised-hyperplane partition."""
        entries = node.entries
        i1 = int(self._rng.integers(len(entries)))
        i2 = int(self._rng.integers(len(entries) - 1))
        if i2 >= i1:
            i2 += 1
        p1, p2 = entries[i1].obj, entries[i2].obj
        n1 = _Node(is_leaf=node.is_leaf)
        n2 = _Node(is_leaf=node.is_leaf)
        r1 = r2 = 0.0
        for entry in entries:
            d1 = self.oracle(p1, entry.obj)
            d2 = self.oracle(p2, entry.obj)
            if d1 <= d2:
                entry.parent_distance = d1
                n1.entries.append(entry)
                r1 = max(r1, d1 + entry.radius)
            else:
                entry.parent_distance = d2
                n2.entries.append(entry)
                r2 = max(r2, d2 + entry.radius)
        return (p1, n1, r1), (p2, n2, r2)

    # -- queries -------------------------------------------------------------

    def range(self, query: int, radius: float) -> List[int]:
        """All indexed objects within ``radius`` of ``query`` (inclusive)."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        hits: List[int] = []

        def visit(node: _Node, d_parent: Optional[float]) -> None:
            for entry in node.entries:
                reach = radius + entry.radius
                slack = _PRUNE_SLACK * (1.0 + reach)
                # Parent-distance pruning: no oracle call needed.
                if d_parent is not None:
                    margin = abs(d_parent - entry.parent_distance)
                    if margin > reach + slack:
                        continue
                d = self.oracle(query, entry.obj)
                if node.is_leaf:
                    if d <= radius:
                        hits.append(entry.obj)
                else:
                    if d <= reach + slack:
                        visit(entry.child, d)

        visit(self._root, None)
        hits.sort()
        return hits

    def nearest(self, query: int) -> Tuple[int, float]:
        """Exact nearest indexed object to ``query`` (excluding itself)."""
        best: List = [None, math.inf]

        def visit(node: _Node, d_parent: Optional[float]) -> None:
            # Order children by optimistic distance for best-first descent.
            scored = []
            for entry in node.entries:
                if d_parent is not None:
                    margin = abs(d_parent - entry.parent_distance)
                    slack = _PRUNE_SLACK * (1.0 + entry.radius)
                    if margin - entry.radius > best[1] + slack:
                        continue
                d = self.oracle(query, entry.obj)
                if node.is_leaf:
                    if entry.obj != query and d < best[1]:
                        best[0], best[1] = entry.obj, d
                else:
                    scored.append((max(0.0, d - entry.radius), d, entry))
            scored.sort(key=lambda item: item[0])
            for optimistic, d, entry in scored:
                if optimistic <= best[1] + _PRUNE_SLACK * (1.0 + best[1]):
                    visit(entry.child, d)

        visit(self._root, None)
        if best[0] is None:
            raise ValueError("index holds no candidate other than the query")
        return best[0], best[1]
