"""Classic metric-space queries, re-authored onto the bound framework.

These are the primitives the metric-indexing literature (AESA, LAESA,
VP-trees, M-trees) is built around; here they run against an arbitrary
bound provider and a shared partial graph, so a query issued after an
algorithm run inherits all of its resolved distances for free.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.resolver import SmartResolver


def nearest_neighbor(
    resolver: SmartResolver,
    query: int,
    candidates: Optional[Sequence[int]] = None,
) -> Tuple[int, float]:
    """Exact nearest neighbour of ``query`` with lower-bound pruning.

    Returns ``(object, distance)``; raises ValueError when no candidates
    exist.  Identical to a vanilla linear scan (first-index tie-break).
    """
    pool = [c for c in (candidates if candidates is not None else range(resolver.oracle.n)) if c != query]
    if not pool:
        raise ValueError("nearest_neighbor needs at least one candidate")
    best, dist = resolver.argmin(query, pool)
    return best, dist


def k_nearest(
    resolver: SmartResolver,
    query: int,
    k: int,
    candidates: Optional[Sequence[int]] = None,
) -> List[Tuple[float, int]]:
    """Exact ``k`` nearest neighbours, ascending ``(distance, object)``."""
    pool = candidates if candidates is not None else range(resolver.oracle.n)
    return resolver.knearest(query, pool, k)


def range_query(
    resolver: SmartResolver,
    query: int,
    radius: float,
    candidates: Optional[Sequence[int]] = None,
    include_query: bool = False,
) -> List[int]:
    """All objects within ``radius`` of ``query`` (inclusive), sorted by id.

    Re-authoring saves calls in *both* directions: a candidate whose lower
    bound exceeds the radius is rejected unresolved, and one whose upper
    bound already fits is accepted unresolved — the output object set is
    identical to the vanilla scan either way.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    pool = candidates if candidates is not None else range(resolver.oracle.n)
    hits = resolver.within(query, pool, radius)
    if include_query and query in pool:
        hits.append(query)
    hits.sort()
    return hits


def farthest_neighbor(
    resolver: SmartResolver,
    query: int,
    candidates: Optional[Sequence[int]] = None,
) -> Tuple[int, float]:
    """Exact farthest neighbour of ``query`` with upper-bound pruning.

    The mirror image of :func:`nearest_neighbor`: a candidate whose *upper*
    bound cannot reach the current best maximum is skipped unresolved.
    """
    pool = [c for c in (candidates if candidates is not None else range(resolver.oracle.n)) if c != query]
    if not pool:
        raise ValueError("farthest_neighbor needs at least one candidate")
    # Probe in descending upper-bound order to establish a high floor early.
    order = sorted(
        range(len(pool)),
        key=lambda pos: -resolver.bounds(query, pool[pos]).upper,
    )
    best_pos: Optional[int] = None
    best_dist = -math.inf
    for pos in order:
        c = pool[pos]
        b = resolver.bounds(query, c)
        if b.upper < best_dist:
            resolver.stats.decided_by_bounds += 1
            continue
        if b.upper == best_dist and best_pos is not None and best_pos <= pos:
            resolver.stats.decided_by_bounds += 1
            continue
        resolver.stats.decided_by_oracle += 1
        d = resolver.distance(query, c)
        if d > best_dist or (d == best_dist and (best_pos is None or pos < best_pos)):
            best_dist = d
            best_pos = pos
    return pool[best_pos], best_dist
