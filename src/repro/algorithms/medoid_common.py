"""Shared machinery for the medoid clustering algorithms (PAM, CLARANS).

Both algorithms revolve around the same two primitives:

* **assignment** — each object's nearest and second-nearest medoid (with
  exact distances), computed through the resolver's pruned 2-NN search;
* **swap cost** — the exact change in total deviation caused by replacing
  medoid ``m`` with non-medoid ``h`` (Kaufman & Rousseeuw's ``TC_mh``),
  where each per-object contribution is decided from bounds when possible:

  - an object whose nearest medoid survives the swap contributes 0 whenever
    ``LB(o, h) >= d1(o)`` — no oracle call;
  - an object whose nearest medoid *is* ``m`` contributes ``d2(o) − d1(o)``
    whenever ``LB(o, h) >= d2(o)`` — no oracle call.

Contributions that the bounds cannot settle are resolved exactly, so the
swap costs (and therefore the algorithms' trajectories) match the vanilla
implementations bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.resolver import SmartResolver


@dataclass
class Assignment:
    """Per-object nearest/second-nearest medoid information."""

    nearest: List[int]   # nearest medoid id per object (medoids map to themselves)
    d1: List[float]      # distance to the nearest medoid (0 for medoids)
    d2: List[float]      # distance to the second-nearest medoid (inf when l == 1)

    @property
    def cost(self) -> float:
        """Total deviation: sum of nearest-medoid distances."""
        return sum(self.d1)


def assign_objects(resolver: SmartResolver, medoids: Sequence[int]) -> Assignment:
    """Compute the exact assignment of every object to its nearest medoids."""
    n = resolver.oracle.n
    medoid_set = set(medoids)
    medoid_list = list(medoids)
    nearest = [0] * n
    d1 = [0.0] * n
    d2 = [math.inf] * n
    for o in range(n):
        if o in medoid_set:
            nearest[o] = o
            d1[o] = 0.0
            # Second-nearest of a medoid is its nearest *other* medoid; only
            # needed when that medoid is removed, so compute lazily then.
            d2[o] = math.inf
            continue
        top2 = resolver.knearest(o, medoid_list, 2)
        d1[o], nearest[o] = top2[0]
        d2[o] = top2[1][0] if len(top2) > 1 else math.inf
    return Assignment(nearest=nearest, d1=d1, d2=d2)


def swap_cost(
    resolver: SmartResolver,
    medoids: Sequence[int],
    assignment: Assignment,
    m: int,
    h: int,
) -> float:
    """Exact total-deviation delta of swapping medoid ``m`` for object ``h``.

    Negative values mean the swap improves the clustering.  Only per-object
    contributions the bounds cannot decide trigger oracle resolutions.
    """
    n = resolver.oracle.n
    medoid_set = set(medoids)
    if m not in medoid_set:
        raise ValueError(f"{m} is not a medoid")
    if h in medoid_set:
        raise ValueError(f"{h} is already a medoid")
    nearest = assignment.nearest
    d1 = assignment.d1
    d2 = assignment.d2
    delta = 0.0
    for o in range(n):
        if o == h or o == m:
            continue
        if o in medoid_set:
            continue
        if nearest[o] == m:
            # o loses its medoid: it moves to h or to its second-nearest.
            ceiling = d2[o]
            if resolver.is_at_least(o, h, ceiling):
                delta += ceiling - d1[o]
            else:
                d_oh = resolver.distance(o, h)
                delta += min(d_oh, ceiling) - d1[o]
        else:
            # o keeps its medoid unless h comes strictly closer.
            if not resolver.is_at_least(o, h, d1[o]):
                d_oh = resolver.distance(o, h)
                if d_oh < d1[o]:
                    delta += d_oh - d1[o]
    # h itself: was a regular object paying d1[h]; becomes a medoid paying 0.
    delta -= d1[h]
    # m itself: was a medoid paying 0; now pays its nearest new medoid.
    new_medoids = [x for x in medoids if x != m] + [h]
    _, d_m = resolver.argmin(m, new_medoids)
    delta += d_m
    return delta


def total_cost(resolver: SmartResolver, medoids: Sequence[int]) -> float:
    """Exact clustering cost of a medoid set (used for verification)."""
    return assign_objects(resolver, medoids).cost
