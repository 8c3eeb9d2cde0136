"""Landmark selection and bootstrap utilities.

LAESA-style schemes pre-pay ``L`` rows of the distance matrix: every
landmark's distance to every object is resolved up front.  The same routine
doubles as the paper's "Bootstrapping Tri Scheme through Landmarks": because
resolutions flow through the shared :class:`SmartResolver`, the landmark
edges land in the partial graph, and the Tri Scheme immediately has ``L``
triangles over every unknown pair.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.core.resolver import SmartResolver


def default_num_landmarks(n: int, multiplier: float = 1.0) -> int:
    """The paper's default landmark budget, ``k = log2(n)`` (at least 1)."""
    if n <= 1:
        return 1
    return max(1, int(round(multiplier * math.log2(n))))


def select_landmarks_maxmin(
    resolver: SmartResolver,
    num_landmarks: int,
    candidates: Sequence[int] | None = None,
) -> List[int]:
    """Farthest-first (max-min) landmark selection, the standard LAESA pick.

    Resolves ``(num_landmarks − 1) × len(candidates)`` distances through the
    resolver while selecting: the first candidate is the first landmark, and
    each new landmark is the candidate maximising the distance to its
    nearest already-chosen landmark (ties go to the earliest candidate).
    ``candidates`` defaults to every id; a dynamic set passes its live ids,
    so tombstoned slots are never probed.
    """
    ids = range(resolver.oracle.n) if candidates is None else list(candidates)
    if not 1 <= num_landmarks <= len(ids):
        raise ValueError(f"num_landmarks must be in [1, {len(ids)}]; got {num_landmarks}")
    chosen = [0]
    nearest = np.full(len(ids), math.inf)
    while len(chosen) < num_landmarks:
        newest = ids[chosen[-1]]
        for pos, obj in enumerate(ids):
            d = resolver.distance(newest, obj)
            if d < nearest[pos]:
                nearest[pos] = d
        nearest[chosen] = -math.inf
        chosen.append(int(np.argmax(nearest)))
    return [ids[pos] for pos in chosen]


def resolve_landmark_matrix(
    resolver: SmartResolver,
    landmarks: Sequence[int],
    objects: Sequence[int] | None = None,
) -> np.ndarray:
    """Resolve and return the ``L × n`` landmark-to-object distance matrix.

    ``objects`` defaults to every id.  A dynamic set passes its live ids;
    the cells of tombstoned slots stay zero and are never read, because
    dead ids never enter a candidate set.
    """
    n = resolver.graph.n
    matrix = np.zeros((len(landmarks), n))
    for row, landmark in enumerate(landmarks):
        for obj in range(n) if objects is None else objects:
            matrix[row, obj] = resolver.distance(landmark, obj)
    return matrix


def bootstrap_with_landmarks(
    resolver: SmartResolver,
    num_landmarks: int | None = None,
    multiplier: float = 1.0,
    strategy: str = "maxmin",
) -> List[int]:
    """Run the LAESA bootstrap: pick landmarks and resolve their rows.

    Returns the landmark ids.  All resolved edges are recorded in the shared
    partial graph, so *any* provider attached to the resolver benefits.
    ``strategy`` selects how landmarks are picked (see
    :data:`SELECTION_STRATEGIES`).
    """
    n = resolver.oracle.n
    if num_landmarks is None:
        num_landmarks = default_num_landmarks(n, multiplier)
    num_landmarks = min(num_landmarks, n)
    landmarks = select_landmarks(resolver, num_landmarks, strategy)
    resolve_landmark_matrix(resolver, landmarks)
    return landmarks


def select_landmarks_random(
    resolver: SmartResolver,
    num_landmarks: int,
    seed: int = 0,
) -> List[int]:
    """Uniform-random landmark selection (no selection-time oracle calls).

    The cheapest strategy: zero calls spent choosing, at the price of
    landmarks that may cluster together and cover the space poorly.
    """
    n = resolver.oracle.n
    if not 1 <= num_landmarks <= n:
        raise ValueError(f"num_landmarks must be in [1, {n}]; got {num_landmarks}")
    rng = np.random.default_rng(seed)
    return sorted(int(x) for x in rng.choice(n, size=num_landmarks, replace=False))


def select_landmarks_maxsum(
    resolver: SmartResolver,
    num_landmarks: int,
) -> List[int]:
    """Max-sum selection: each landmark maximises total distance to the rest.

    A greedier spread criterion than max-min; tends to pick boundary
    objects.  Costs the same selection calls as max-min.
    """
    n = resolver.oracle.n
    if not 1 <= num_landmarks <= n:
        raise ValueError(f"num_landmarks must be in [1, {n}]; got {num_landmarks}")
    landmarks = [0]
    total = np.zeros(n)
    while len(landmarks) < num_landmarks:
        newest = landmarks[-1]
        for obj in range(n):
            total[obj] += resolver.distance(newest, obj)
        total[landmarks] = -math.inf
        candidate = int(np.argmax(total))
        landmarks.append(candidate)
    return landmarks


#: Selection strategies accepted by :func:`bootstrap_with_landmarks`.
SELECTION_STRATEGIES = ("maxmin", "maxsum", "random")


def select_landmarks(
    resolver: SmartResolver,
    num_landmarks: int,
    strategy: str = "maxmin",
    seed: int = 0,
) -> List[int]:
    """Dispatch to a landmark-selection strategy by name."""
    if strategy == "maxmin":
        return select_landmarks_maxmin(resolver, num_landmarks)
    if strategy == "maxsum":
        return select_landmarks_maxsum(resolver, num_landmarks)
    if strategy == "random":
        return select_landmarks_random(resolver, num_landmarks, seed)
    raise ValueError(
        f"unknown strategy {strategy!r}; choose from {SELECTION_STRATEGIES}"
    )
