"""LAESA baseline — Micó, Oncina & Vidal (1994).

Keeps an ``L × n`` matrix ``D`` of resolved landmark-to-object distances and
bounds any pair through the landmarks:

    LB(i, j) = max_l |D[l, i] − D[l, j]|
    UB(i, j) = min_l  D[l, i] + D[l, j]

Queries are ``O(L)`` (vectorised); updates only matter when the resolved
edge touches a landmark.  The bounds are fast but loose — the scheme only
ever "sees" paths of length 2 through the fixed landmark set, whereas the
Tri Scheme exploits *every* triangle accumulated so far.

Because every matrix entry is an exact oracle distance, both bounds are
valid, and LAESA is the provider that certifies the resolver's ``stretch``
budget (Dinitz & Zhang, arXiv 1612.05623): a pair whose interval satisfies
``ub <= stretch · lb`` is answered from the interval without an oracle call.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.bounds import kernels
from repro.core.bounds import BaseBoundProvider, Bounds
from repro.core.partial_graph import PartialDistanceGraph
from repro.core.resolver import SmartResolver
from repro.bounds.landmarks import (
    default_num_landmarks,
    resolve_landmark_matrix,
    select_landmarks_maxmin,
)


class Laesa(BaseBoundProvider):
    """Landmark-matrix bound provider.

    Construct, then call :meth:`bootstrap` with the resolver to pick
    landmarks and pre-pay their distance rows.
    """

    name = "LAESA"
    vectorized_bounds = True

    def __init__(
        self,
        graph: PartialDistanceGraph,
        max_distance: float = math.inf,
        num_landmarks: int | None = None,
    ) -> None:
        super().__init__(graph, max_distance)
        self._requested_landmarks = num_landmarks
        self.landmarks: List[int] = []
        self._landmark_row: dict[int, int] = {}
        self._matrix: np.ndarray | None = None
        #: Fraction of the live set that may churn before landmarks are
        #: re-selected from scratch (drift threshold).
        self.drift_threshold = 0.5
        self._drift = 0
        self._bootstrap_count = 0

    # -- construction -----------------------------------------------------

    def bootstrap(self, resolver: SmartResolver, multiplier: float = 1.0) -> int:
        """Select landmarks and resolve the landmark matrix.

        Returns the number of oracle calls charged for the bootstrap.
        """
        before = resolver.oracle.calls
        n = resolver.oracle.n
        count = self._requested_landmarks or default_num_landmarks(n, multiplier)
        count = min(count, n)
        self.landmarks = select_landmarks_maxmin(resolver, count)
        self._matrix = resolve_landmark_matrix(resolver, self.landmarks)
        self._landmark_row = {lm: row for row, lm in enumerate(self.landmarks)}
        self._bootstrap_count = len(self.landmarks)
        self._drift = 0
        return resolver.oracle.calls - before

    def adopt(self, landmarks: Sequence[int], matrix: np.ndarray) -> None:
        """Install an externally resolved landmark matrix (shared bootstraps)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[0] != len(landmarks):
            raise ValueError("matrix row count must equal the number of landmarks")
        self.landmarks = list(landmarks)
        self._matrix = matrix
        self._landmark_row = {lm: row for row, lm in enumerate(self.landmarks)}

    # -- mutation maintenance ----------------------------------------------

    def apply_mutations(self, inserted, removed, resolver=None) -> dict:
        """Incrementally maintain the landmark matrix across a mutation batch.

        Rows of removed landmarks are dropped; every inserted (possibly
        recycled) id gets its column resolved immediately through
        ``resolver`` — the incremental landmark assignment, ``L`` strong
        calls per insert — so a stale column is never served.  Columns of
        removed non-landmark ids are left in place: dead ids never appear
        in a candidate set, so those cells are never read.  When cumulative
        churn exceeds :attr:`drift_threshold` of the live set (or more than
        half the landmarks died) the whole landmark set is re-selected.
        """
        counters = {
            "landmark_rows_dropped": 0,
            "landmark_cols_refilled": 0,
            "landmark_reselections": 0,
        }
        if self._matrix is None:
            return counters
        inserted = list(inserted)
        removed = set(removed)
        if inserted and resolver is None:
            raise ValueError(
                "LAESA maintenance needs a resolver to refill landmark "
                "columns for inserted ids (an exact matrix must never serve "
                "a stale or empty column)"
            )
        dead_landmarks = [lm for lm in self.landmarks if lm in removed]
        if dead_landmarks:
            keep = [r for r, lm in enumerate(self.landmarks) if lm not in removed]
            self.landmarks = [self.landmarks[r] for r in keep]
            self._matrix = self._matrix[keep].copy() if keep else None
            self._landmark_row = {lm: row for row, lm in enumerate(self.landmarks)}
            counters["landmark_rows_dropped"] = len(dead_landmarks)
        self._drift += len(inserted) + len(removed)
        if self._matrix is not None:
            n = self.graph.n
            if self._matrix.shape[1] < n:
                pad = np.zeros((self._matrix.shape[0], n - self._matrix.shape[1]))
                self._matrix = np.hstack([self._matrix, pad])
            if resolver is not None and inserted:
                for obj in inserted:
                    for row, lm in enumerate(self.landmarks):
                        self._matrix[row, obj] = resolver.distance(lm, obj)
                    counters["landmark_cols_refilled"] += 1
        if resolver is not None and self._needs_reselection():
            self._reselect(resolver)
            counters["landmark_reselections"] = 1
        return counters

    def _needs_reselection(self) -> bool:
        alive = self.graph.num_alive
        if alive < 2:
            return False
        if self._matrix is None or not self.landmarks:
            return True
        if self._bootstrap_count and len(self.landmarks) < max(1, self._bootstrap_count // 2):
            return True
        return self._drift > self.drift_threshold * alive

    def _reselect(self, resolver: SmartResolver) -> None:
        """Re-pick landmarks maxmin over the *live* ids and refill their rows."""
        alive = self.graph.alive_ids()
        count = min(self._bootstrap_count or default_num_landmarks(len(alive)), len(alive))
        landmarks = select_landmarks_maxmin(resolver, max(1, count), alive)
        self._matrix = resolve_landmark_matrix(resolver, landmarks, alive)
        self.landmarks = landmarks
        self._landmark_row = {lm: row for row, lm in enumerate(landmarks)}
        self._bootstrap_count = len(landmarks)
        self._drift = 0

    # -- protocol -------------------------------------------------------------

    def bounds(self, i: int, j: int) -> Bounds:
        if i == j:
            return Bounds(0.0, 0.0)
        known = self.graph.get(i, j)
        if known is not None:
            return Bounds(known, known)
        if self._matrix is None or not self.landmarks:
            return self.trivial_bounds(i, j)
        col_i = self._matrix[:, i]
        col_j = self._matrix[:, j]
        lb = float(np.max(np.abs(col_i - col_j)))
        ub = min(float(np.min(col_i + col_j)), self.max_distance)
        if lb > ub:
            lb = ub
        return Bounds(lb, ub)

    def bounds_many(self, pairs: Iterable[Tuple[int, int]]) -> List[Bounds]:
        """Batch query: one ``L × B`` matrix reduction for the whole frontier.

        Column-slices the landmark matrix for every genuinely unknown pair
        at once and reduces along the landmark axis — the same elementwise
        operations as :meth:`bounds`, so results are identical per pair.
        """
        pairs = list(pairs)
        if self._matrix is None or not self.landmarks:
            return [self.bounds(i, j) for i, j in pairs]
        out: List[Bounds | None] = [None] * len(pairs)
        todo: List[int] = []
        ii: List[int] = []
        jj: List[int] = []
        for idx, (i, j) in enumerate(pairs):
            if i == j:
                out[idx] = Bounds(0.0, 0.0)
                continue
            known = self.graph.get(i, j)
            if known is not None:
                out[idx] = Bounds(known, known)
                continue
            todo.append(idx)
            ii.append(i)
            jj.append(j)
        if todo:
            lowers, uppers = kernels.laesa_sweep(
                self._matrix,
                np.asarray(ii, dtype=np.int64),
                np.asarray(jj, dtype=np.int64),
            )
            cap = self.max_distance
            for pos, idx in enumerate(todo):
                lb = float(lowers[pos])
                ub = min(float(uppers[pos]), cap)
                if lb > ub:
                    lb = ub
                out[idx] = Bounds(lb, ub)
        return out

    def notify_resolved(self, i: int, j: int, distance: float) -> None:
        """Refresh matrix cells when a landmark's distance was resolved."""
        if self._matrix is None:
            return
        row = self._landmark_row.get(i)
        if row is not None:
            self._matrix[row, j] = distance
        row = self._landmark_row.get(j)
        if row is not None:
            self._matrix[row, i] = distance
