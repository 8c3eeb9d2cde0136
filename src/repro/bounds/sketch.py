"""Landmark-tree distance sketches — sublinear-memory bounds with stretch.

Grounded in *Approximating Approximate Distance Oracles* (arXiv 1612.05623)
and Ramsey-partition sketches (arXiv cs/0511084): instead of O(n²) bound
state, keep ``L`` landmark *trees* — one distance row per landmark over all
``n`` objects, ``O(n·L)`` memory total — and bound any pair through them:

    LB(i, j) = max_l |D[l, i] − D[l, j]|        (exact rows only)
    UB(i, j) = min_l  D[l, i] + D[l, j]

Rows come in two flavours:

* **exact** — resolved through the oracle at :meth:`SketchBoundProvider.
  bootstrap` (LAESA-style, maxmin landmark selection).  Both bounds are
  valid and the sketch is a drop-in exact provider.
* **tree** — :meth:`SketchBoundProvider.from_graph` runs Dijkstra over the
  *known* edges from each landmark (:func:`repro.bounds.kernels.sssp`), at
  zero oracle cost.  Tree rows are upper bounds on the true landmark
  distances, so only the ``UB`` side is sound; ``LB`` stays trivial.

Either way the sweep itself runs through the NumPy
:func:`repro.bounds.kernels.laesa_sweep` kernel.  The provider is the
natural companion of the resolver's ``stretch`` budget: tight sketch
intervals let :class:`~repro.core.resolver.SmartResolver` answer
``ub <= stretch · lb`` pairs without any oracle call.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.bounds import kernels
from repro.bounds.landmarks import (
    default_num_landmarks,
    resolve_landmark_matrix,
    resolve_landmark_matrix_subset,
    select_landmarks_maxmin,
    select_landmarks_maxmin_subset,
)
from repro.core.bounds import BaseBoundProvider, Bounds
from repro.core.partial_graph import PartialDistanceGraph


class SketchBoundProvider(BaseBoundProvider):
    """Bound provider over ``L`` landmark distance rows (``O(n·L)`` memory).

    Construct, then either :meth:`bootstrap` exact rows through a resolver
    (both bounds valid) or :meth:`refresh_from_graph` tree rows from the
    known edges (upper bounds only, zero oracle calls).
    """

    name = "Sketch"
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
        #: True when every matrix entry is an oracle-exact distance — the
        #: precondition for serving lower bounds from the sketch.
        self.exact_rows = True
        #: Opt-in (dynamic mode): tree sketches apply a one-step relaxation
        #: per resolved edge and mark only genuinely improved rows dirty, so
        #: :meth:`refresh_from_graph` can recompute a delta instead of the
        #: whole O(n·L) sketch.
        self.track_dirty = False
        self._dirty_rows: set[int] = set()
        #: Tree rows actually recomputed by :meth:`refresh_from_graph`.
        self.rows_recomputed = 0
        #: Fraction of the live set that may churn before landmark
        #: re-selection, and the running churn tally.
        self.drift_threshold = 0.5
        self._drift = 0
        self._bootstrap_count = 0
        self.landmark_rows_dropped = 0
        self.landmark_cols_refilled = 0
        self.landmark_reselections = 0

    # -- construction -----------------------------------------------------

    def bootstrap(self, resolver, multiplier: float = 1.0) -> int:
        """Select landmarks and resolve exact sketch rows through the oracle.

        Returns the number of oracle calls charged for the bootstrap.
        """
        before = resolver.oracle.calls
        n = resolver.oracle.n
        count = self._requested_landmarks or default_num_landmarks(n, multiplier)
        count = min(count, n)
        self.landmarks = select_landmarks_maxmin(resolver, count)
        self._matrix = resolve_landmark_matrix(resolver, self.landmarks)
        self._landmark_row = {lm: row for row, lm in enumerate(self.landmarks)}
        self.exact_rows = True
        self._bootstrap_count = len(self.landmarks)
        self._drift = 0
        return resolver.oracle.calls - before

    def adopt(self, landmarks: Sequence[int], matrix: np.ndarray) -> None:
        """Install externally resolved exact rows (shared bootstraps)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[0] != len(landmarks):
            raise ValueError("matrix row count must equal the number of landmarks")
        self.landmarks = list(landmarks)
        self._matrix = matrix
        self._landmark_row = {lm: row for row, lm in enumerate(self.landmarks)}
        self.exact_rows = True

    @classmethod
    def from_graph(
        cls,
        graph: PartialDistanceGraph,
        landmarks: Sequence[int],
        max_distance: float = math.inf,
    ) -> "SketchBoundProvider":
        """Build a tree sketch from the already-resolved edges, oracle-free.

        Each row is the Dijkstra tree from one landmark over the known
        edges — an upper bound on the true landmark distance, so the sketch
        serves only upper bounds (``exact_rows`` is False).
        """
        provider = cls(graph, max_distance, num_landmarks=len(landmarks))
        provider.refresh_from_graph(landmarks)
        return provider

    def refresh_from_graph(
        self,
        landmarks: Sequence[int] | None = None,
        dirty_only: bool = False,
    ) -> int:
        """(Re)compute tree rows from the current known-edge graph.

        With ``dirty_only=True`` (and :attr:`track_dirty` enabled) only the
        rows whose one-step relaxation improved since the last refresh are
        recomputed — the delta-aware fast path.  Untouched rows are served
        as they stand, which is sound: a tree row is an upper bound on the
        landmark's distances, and skipping a recompute can only leave it
        where it was, never loosen it below a true distance.  Returns the
        number of rows recomputed.
        """
        if landmarks is not None:
            self.landmarks = list(landmarks)
            dirty_only = False  # a new landmark set has no incremental state
        if not self.landmarks:
            raise ValueError("a tree sketch needs at least one landmark")
        graph = self.graph
        if dirty_only and self._matrix is not None and not self.exact_rows:
            targets = sorted(
                row for row in self._dirty_rows if row < len(self.landmarks)
            )
            if not targets:
                return 0
            indptr, indices, weights = graph.csr_arrays()
            if self._matrix.shape[1] < graph.n:
                pad = np.full(
                    (self._matrix.shape[0], graph.n - self._matrix.shape[1]), math.inf
                )
                self._matrix = np.hstack([self._matrix, pad])
            for row in targets:
                self._matrix[row] = kernels.sssp(
                    indptr, indices, weights, graph.n, self.landmarks[row]
                )
            self._dirty_rows.clear()
            self.rows_recomputed += len(targets)
            return len(targets)
        indptr, indices, weights = graph.csr_arrays()
        rows = [
            kernels.sssp(indptr, indices, weights, graph.n, lm)
            for lm in self.landmarks
        ]
        self._matrix = np.vstack(rows)
        self._landmark_row = {lm: row for row, lm in enumerate(self.landmarks)}
        self.exact_rows = False
        self._dirty_rows.clear()
        self.rows_recomputed += len(rows)
        return len(rows)

    def apply_mutations(self, inserted, removed, resolver=None) -> dict:
        """Incrementally maintain the sketch across a mutation batch.

        Exact sketches behave like LAESA: dead landmark rows are dropped,
        inserted ids get their columns resolved immediately through
        ``resolver``, and heavy drift triggers landmark re-selection over
        the live set.  Tree sketches are cheaper: mutated columns are
        masked to ``inf`` (a trivially sound upper bound) and new columns
        are padded with ``inf`` — resolved edges repopulate them through
        :meth:`notify_resolved`, and :meth:`refresh_from_graph` tightens
        dirty rows on demand.
        """
        counters = {
            "sketch_rows_dropped": 0,
            "sketch_cols_refilled": 0,
            "sketch_reselections": 0,
        }
        if self._matrix is None:
            return counters
        inserted = list(inserted)
        removed = set(removed)
        if self.exact_rows and inserted and resolver is None:
            raise ValueError(
                "exact-sketch maintenance needs a resolver to refill landmark "
                "columns for inserted ids"
            )
        dead_landmarks = [lm for lm in self.landmarks if lm in removed]
        if dead_landmarks:
            keep = [r for r, lm in enumerate(self.landmarks) if lm not in removed]
            self.landmarks = [self.landmarks[r] for r in keep]
            self._matrix = self._matrix[keep].copy() if keep else None
            self._landmark_row = {lm: row for row, lm in enumerate(self.landmarks)}
            self._dirty_rows.clear()
            counters["sketch_rows_dropped"] = len(dead_landmarks)
            self.landmark_rows_dropped += len(dead_landmarks)
        self._drift += len(inserted) + len(removed)
        if self._matrix is not None:
            n = self.graph.n
            if self._matrix.shape[1] < n:
                fill = 0.0 if self.exact_rows else math.inf
                pad = np.full((self._matrix.shape[0], n - self._matrix.shape[1]), fill)
                self._matrix = np.hstack([self._matrix, pad])
            if self.exact_rows:
                for obj in inserted:
                    for row, lm in enumerate(self.landmarks):
                        self._matrix[row, obj] = resolver.distance(lm, obj)
                    counters["sketch_cols_refilled"] += 1
                self.landmark_cols_refilled += len(inserted)
            else:
                # Recycled ids must not inherit the dead incarnation's paths.
                for obj in set(inserted) | removed:
                    if obj < self._matrix.shape[1]:
                        self._matrix[:, obj] = math.inf
        if self.exact_rows and resolver is not None and self._needs_reselection():
            alive = self.graph.alive_ids()
            count = min(
                self._bootstrap_count or default_num_landmarks(len(alive)), len(alive)
            )
            landmarks = select_landmarks_maxmin_subset(resolver, alive, max(1, count))
            self._matrix = resolve_landmark_matrix_subset(
                resolver, landmarks, alive, self.graph.n
            )
            self.landmarks = landmarks
            self._landmark_row = {lm: row for row, lm in enumerate(landmarks)}
            self._bootstrap_count = len(landmarks)
            self._drift = 0
            counters["sketch_reselections"] = 1
            self.landmark_reselections += 1
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

    @property
    def memory_entries(self) -> int:
        """Sketch state size in matrix entries — ``L × n``, never O(n²)."""
        return 0 if self._matrix is None else int(self._matrix.size)

    # -- protocol ----------------------------------------------------------

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
        ub = min(float(np.min(col_i + col_j)), self.max_distance)
        lb = float(np.max(np.abs(col_i - col_j))) if self.exact_rows else 0.0
        if lb > ub:
            lb = ub
        return Bounds(lb, ub)

    def bounds_many(self, pairs: Iterable[Tuple[int, int]]) -> List[Bounds]:
        """Batch query through the landmark-sweep kernel."""
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
            exact = self.exact_rows
            for pos, idx in enumerate(todo):
                lb = float(lowers[pos]) if exact else 0.0
                ub = min(float(uppers[pos]), cap)
                if lb > ub:
                    lb = ub
                out[idx] = Bounds(lb, ub)
        return out

    def notify_resolved(self, i: int, j: int, distance: float) -> None:
        """Tighten sketch rows when a landmark's distance was resolved.

        Exact sketches overwrite the cell (the resolved value *is* the
        row's entry); tree sketches only improve — a resolved distance can
        only shorten the landmark's shortest path, never lengthen it.
        """
        if self._matrix is None:
            return
        row = self._landmark_row.get(i)
        if row is not None and (self.exact_rows or distance < self._matrix[row, j]):
            self._matrix[row, j] = distance
        row = self._landmark_row.get(j)
        if row is not None and (self.exact_rows or distance < self._matrix[row, i]):
            self._matrix[row, i] = distance
        if self.track_dirty and not self.exact_rows:
            # One-step relaxation across *all* tree rows: the new edge may
            # shorten any landmark's path through either endpoint.  Rows it
            # genuinely improved are marked dirty — they (and only they) may
            # be tightened further by a full Dijkstra at the next refresh.
            col_i = self._matrix[:, i].copy()
            col_j = self._matrix[:, j].copy()
            better_j = col_i + distance < col_j
            better_i = col_j + distance < col_i
            if better_j.any():
                self._matrix[better_j, j] = col_i[better_j] + distance
            if better_i.any():
                self._matrix[better_i, i] = col_j[better_i] + distance
            for row in np.nonzero(better_i | better_j)[0].tolist():
                self._dirty_rows.add(int(row))
