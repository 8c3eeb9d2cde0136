"""PAM (Partitioning Around Medoids, Kaufman & Rousseeuw 1987), re-authored.

The SWAP phase evaluates every (medoid, non-medoid) exchange, picks the most
improving one, applies it, and repeats until no exchange helps.  Each
exchange cost is an exact sum of per-object contributions; the re-authoring
(see :mod:`repro.algorithms.medoid_common`) settles most contributions from
distance bounds, saving the oracle calls the vanilla algorithm would make.

Initialisation is seeded-random by default (the configuration the paper's
experiments sweep); the classic greedy BUILD phase is available with
``init="build"``.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.algorithms.base import ClusteringResult
from repro.algorithms.medoid_common import assign_objects, swap_cost
from repro.core.resolver import SmartResolver


def _build_init(resolver: SmartResolver, l: int) -> List[int]:
    """Greedy BUILD: first medoid minimises total distance, rest maximise gain."""
    n = resolver.oracle.n
    # BUILD's first step sums every pairwise distance anyway; fetch the
    # full matrix as one batch instead of n² sequential round-trips.
    resolver.resolve_many((c, o) for c in range(n) for o in range(c + 1, n))
    totals = [sum(resolver.distance(c, o) for o in range(n)) for c in range(n)]
    medoids = [int(np.argmin(totals))]
    d_near = [resolver.distance(medoids[0], o) for o in range(n)]
    while len(medoids) < l:
        best_gain = -math.inf
        best_c = -1
        for c in range(n):
            if c in medoids:
                continue
            gain = 0.0
            for o in range(n):
                if o == c:
                    continue
                # Adding c helps every object that is closer to c than to
                # its current nearest medoid.
                if not resolver.is_at_least(o, c, d_near[o]):
                    gain += d_near[o] - resolver.distance(o, c)
            if gain > best_gain:
                best_gain = gain
                best_c = c
        medoids.append(best_c)
        for o in range(n):
            d = resolver.distance(best_c, o)
            if d < d_near[o]:
                d_near[o] = d
    return medoids


def pam(
    resolver: SmartResolver,
    l: int = 10,
    seed: int = 0,
    init: str = "random",
    max_iterations: int = 100,
) -> ClusteringResult:
    """Exact PAM clustering with bound-pruned swap evaluation.

    Parameters
    ----------
    resolver:
        Comparison engine; swap in different bound providers to trade oracle
        calls for CPU.
    l:
        Number of medoids (the paper's ``l``).
    seed:
        Seed for the random initial medoid set (``init="random"``).
    init:
        ``"random"`` (seeded sample) or ``"build"`` (greedy BUILD phase).
    max_iterations:
        Safety cap on SWAP passes.
    """
    n = resolver.oracle.n
    if not 1 <= l < n:
        raise ValueError(f"l must be in [1, {n - 1}]; got {l}")
    if init == "random":
        rng = np.random.default_rng(seed)
        medoids = sorted(int(x) for x in rng.choice(n, size=l, replace=False))
    elif init == "build":
        medoids = _build_init(resolver, l)
    else:
        raise ValueError(f"unknown init scheme {init!r}")

    assignment = assign_objects(resolver, medoids)
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        best_delta = 0.0
        best_swap: tuple[int, int] | None = None
        medoid_set = set(medoids)
        for m in medoids:
            for h in range(n):
                if h in medoid_set:
                    continue
                delta = swap_cost(resolver, medoids, assignment, m, h)
                if delta < best_delta - 1e-12:
                    best_delta = delta
                    best_swap = (m, h)
        if best_swap is None:
            break
        m, h = best_swap
        medoids = sorted(x for x in medoids if x != m) + [h]
        medoids.sort()
        assignment = assign_objects(resolver, medoids)
    return ClusteringResult(
        medoids=tuple(medoids),
        assignment=tuple(assignment.nearest),
        cost=assignment.cost,
        iterations=iterations,
    )
