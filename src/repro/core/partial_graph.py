"""Partial distance graph — the evolving store of resolved distances.

The paper abstracts the problem state as a weighted complete graph in which
only some edges (resolved distances) are *known*.  Every bound provider reads
this structure; every oracle resolution appends one edge.

Two access patterns dominate:

* **Tri Scheme** intersects the adjacency lists of an unknown edge's two
  endpoints to enumerate triangles; the paper keeps per-node balanced BSTs so
  intersection runs in sorted-merge order and insertion costs ``O(log n)``.
  Python's ``bisect`` over a flat list gives the same sorted-merge iteration
  with ``O(log n)`` search and ``O(n)`` worst-case insert, which is faster in
  practice at these sizes than a pointer-based tree; we use it as the BST
  substitute.
* **SPLUB** runs Dijkstra over the known edges, which wants cheap iteration
  over ``(neighbour, weight)`` pairs.

On top of the sorted lists the graph maintains *flat NumPy mirrors* of each
node's adjacency (:meth:`adjacency_arrays`) and of the full edge set
(:meth:`edge_arrays`), rebuilt lazily and invalidated by **mutation
epochs**: :meth:`node_epoch` advances whenever a node's adjacency changes
and :attr:`epoch` whenever the graph changes at all.  The epochs are stored
monotone counters (never derived from sizes, which can repeat once removal
exists): two equal epochs imply *identical* graphs, so an epoch comparison
is a complete staleness test — vectorised bound kernels and bound memos key
their caches on it.  For a graph that has only ever gained edges the global
epoch equals :attr:`num_edges` and each node epoch equals the node's
degree, preserving the original append-only contract.

Mutation support (:meth:`remove_node`, :meth:`grow`, :meth:`revive`)
tombstones objects without discarding resolved distances among survivors:
removal drops only the edges incident to the removed id, patches the flat
edge mirror by compacting survivors into a fresh buffer (old views stay
valid), and bumps the epochs of every touched node — never a silent full
recompute of surviving state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import InvalidObjectError, UnknownDistanceError
from repro.core.oracle import canonical_pair

Edge = Tuple[int, int]

#: Per-node mirror: (node epoch at build time, neighbour ids, weights).
_NodeMirror = Tuple[int, np.ndarray, np.ndarray]
#: Whole-graph CSR mirror: (epoch at build time, indptr, indices, weights).
_CsrMirror = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


class PartialDistanceGraph:
    """Known-distance store over ``n`` objects with sorted adjacency lists.

    ``registry=`` (keyword-only) runs :meth:`instrument` at construction —
    the unified convention shared by every instrumentable object.
    """

    def __init__(self, n: int, *, registry=None) -> None:
        if n <= 0:
            raise InvalidObjectError(0, n)
        self._n = n
        self._weights: Dict[Edge, float] = {}
        # _adjacency[u] is a sorted list of neighbour ids with known distance;
        # _adj_weights[u] holds the matching weights at the same positions.
        self._adjacency: List[List[int]] = [[] for _ in range(n)]
        self._adj_weights: List[List[float]] = [[] for _ in range(n)]
        # Stored monotone epochs.  For an append-only history these equal
        # num_edges / degree; removals keep bumping them so equal epochs
        # always mean identical graphs even after tombstoning.
        self._epoch = 0
        self._node_epochs: List[int] = [0] * n
        # Tombstone mask: _alive[i] is False once object i was removed.
        self._alive: List[bool] = [True] * n
        self._dead_count = 0
        # Lazily rebuilt NumPy mirrors, invalidated by epoch comparison.
        self._node_mirror: List[Optional[_NodeMirror]] = [None] * n
        # Whole-graph edge mirror: capacity-doubling (i, j, w) column buffers
        # kept current *at insert time* once first materialised — readers
        # never rebuild, they only slice the committed prefix.
        self._edge_buf: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._edge_buf_len = 0
        # Cached column views over the committed prefix, keyed on the edge
        # count, so repeat calls at one epoch return identical objects.
        self._edge_view: Optional[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = None
        # Symmetric CSR mirror of the whole adjacency, keyed on the epoch.
        self._csr_mirror: Optional[_CsrMirror] = None
        # Edge-commit listeners: fired once per *new* edge, after insertion
        # (so callbacks observe the bumped epochs).  The service engine hooks
        # periodic snapshots here.
        self._edge_listeners: List[Callable[[int, int, float], None]] = []
        # Cheap always-on tallies for the observability layer; exposed as
        # registry metrics by instrument().
        self.node_mirror_rebuilds = 0
        self.edge_mirror_rebuilds = 0
        self.edge_mirror_appends = 0
        self.edge_mirror_compactions = 0
        self.csr_mirror_rebuilds = 0
        if registry is not None:
            self.instrument(registry)

    # -- introspection ------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of objects (nodes) in the universe."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of known (resolved) edges."""
        return len(self._weights)

    @property
    def epoch(self) -> int:
        """Global mutation epoch: advances by one per edge insert or mutation.

        The counter is stored (never derived from sizes, which can repeat
        once removal exists), so two equal epochs imply *identical* graphs —
        caches keyed on it never go wrong.  On a graph that has only ever
        gained edges it equals :attr:`num_edges`.
        """
        return self._epoch

    def node_epoch(self, i: int) -> int:
        """Mutation epoch of node ``i``: advances when its adjacency changes.

        Anything derived only from the adjacency of ``i`` (and of a second
        node ``j``) stays exact while both epochs stand still.  On an
        append-only history the value equals the node's degree.
        """
        return self._node_epochs[i]

    def is_alive(self, i: int) -> bool:
        """True while object ``i`` has not been tombstoned."""
        self._check_index(i)
        return self._alive[i]

    @property
    def num_alive(self) -> int:
        """Number of live (non-tombstoned) objects."""
        return self._n - self._dead_count

    def alive_ids(self) -> List[int]:
        """Sorted ids of all live objects."""
        return [i for i in range(self._n) if self._alive[i]]

    @property
    def mutated(self) -> bool:
        """True once the graph's history includes anything beyond edge inserts."""
        return self._dead_count > 0 or self._epoch != len(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, pair: Edge) -> bool:
        i, j = pair
        return canonical_pair(i, j) in self._weights

    def has_edge(self, i: int, j: int) -> bool:
        """Return True when ``dist(i, j)`` is known."""
        return canonical_pair(i, j) in self._weights

    def degree(self, i: int) -> int:
        """Number of known edges incident on object ``i``."""
        self._check_index(i)
        return len(self._adjacency[i])

    # -- edge access ----------------------------------------------------------

    def weight(self, i: int, j: int) -> float:
        """Return the known distance for ``(i, j)`` or raise ``UnknownDistanceError``."""
        if i == j:
            return 0.0
        try:
            return self._weights[canonical_pair(i, j)]
        except KeyError:
            raise UnknownDistanceError(i, j) from None

    def get(self, i: int, j: int, default: float | None = None) -> float | None:
        """Return the known distance for ``(i, j)`` or ``default``."""
        if i == j:
            return 0.0
        return self._weights.get(canonical_pair(i, j), default)

    def add_edge(self, i: int, j: int, distance: float) -> bool:
        """Record a resolved distance.

        Returns True when the edge was new, False when it merely re-recorded
        an identical known value.  Conflicting re-insertion raises ValueError
        (a metric distance cannot change).
        """
        self._check_index(i)
        self._check_index(j)
        if i == j:
            raise ValueError("self-distances are implicit and always 0")
        if not self._alive[i]:
            raise InvalidObjectError(i, self._n)
        if not self._alive[j]:
            raise InvalidObjectError(j, self._n)
        if distance < 0:
            raise ValueError(f"negative distance {distance} for edge ({i}, {j})")
        key = canonical_pair(i, j)
        existing = self._weights.get(key)
        if existing is not None:
            if existing != distance:
                raise ValueError(
                    f"edge {key} already known with distance {existing}, "
                    f"refusing to overwrite with {distance}"
                )
            return False
        distance = float(distance)
        self._weights[key] = distance
        self._insert_neighbor(key[0], key[1], distance)
        self._insert_neighbor(key[1], key[0], distance)
        self._epoch += 1
        self._node_epochs[key[0]] += 1
        self._node_epochs[key[1]] += 1
        if self._edge_buf is not None:
            self._append_edge_row(key[0], key[1], distance)
        for listener in self._edge_listeners:
            listener(key[0], key[1], distance)
        return True

    def subscribe_edges(self, listener: Callable[[int, int, float], None]) -> None:
        """Register ``listener(i, j, distance)`` to run after every new edge.

        Listeners fire post-insertion (epochs already bumped) and only for
        genuinely new edges; they are not copied by :meth:`copy`.
        """
        self._edge_listeners.append(listener)

    def instrument(self, registry) -> None:
        """Expose this graph's tallies on a ``repro.obs`` metrics registry.

        All metrics are callback-backed (the graph itself stays the single
        writer): edge/epoch gauges plus counters for edge inserts and the
        lazy NumPy mirror rebuilds — the number the vectorized bound
        kernels amortise away.
        """
        registry.gauge(
            "repro_graph_nodes", "Objects in the universe.", fn=lambda: self._n
        )
        registry.gauge(
            "repro_graph_edges",
            "Known distances stored in the partial graph.",
            fn=lambda: len(self._weights),
        )
        registry.counter(
            "repro_graph_epoch",
            "Global mutation epoch (bumps once per edge insert or mutation).",
            fn=lambda: self._epoch,
        )
        registry.gauge(
            "repro_graph_tombstones",
            "Removed (tombstoned) object slots awaiting recycling.",
            fn=lambda: self._dead_count,
        )
        registry.counter(
            "repro_graph_edge_mirror_compactions_total",
            "Edge mirrors compacted after a node removal.",
            fn=lambda: self.edge_mirror_compactions,
        )
        registry.counter(
            "repro_graph_node_mirror_rebuilds_total",
            "Per-node NumPy adjacency mirrors rebuilt after an epoch bump.",
            fn=lambda: self.node_mirror_rebuilds,
        )
        registry.counter(
            "repro_graph_edge_mirror_rebuilds_total",
            "Whole-graph NumPy edge mirrors built from scratch (first use only).",
            fn=lambda: self.edge_mirror_rebuilds,
        )
        registry.counter(
            "repro_graph_edge_mirror_appends_total",
            "Rows appended in place to the materialised edge mirror.",
            fn=lambda: self.edge_mirror_appends,
        )
        registry.counter(
            "repro_graph_csr_rebuilds_total",
            "Symmetric CSR mirrors rebuilt after an epoch bump.",
            fn=lambda: self.csr_mirror_rebuilds,
        )

    def _insert_neighbor(self, u: int, v: int, distance: float) -> None:
        pos = bisect_left(self._adjacency[u], v)
        self._adjacency[u].insert(pos, v)
        self._adj_weights[u].insert(pos, distance)

    # -- mutation (tombstoning and growth) -----------------------------------

    def remove_node(self, i: int) -> int:
        """Tombstone object ``i``, dropping only its incident edges.

        Every resolved distance among the survivors is preserved.  The flat
        edge mirror is compacted into a fresh buffer (previously returned
        views stay valid on the retired one); the epochs of ``i`` and of
        each former neighbour bump so every derived cache notices.  Returns
        the number of edges dropped.
        """
        self._check_index(i)
        if not self._alive[i]:
            raise InvalidObjectError(i, self._n)
        neighbours = list(self._adjacency[i])
        for v in neighbours:
            del self._weights[canonical_pair(i, v)]
            pos = bisect_left(self._adjacency[v], i)
            del self._adjacency[v][pos]
            del self._adj_weights[v][pos]
            self._node_epochs[v] += 1
        self._adjacency[i] = []
        self._adj_weights[i] = []
        self._node_epochs[i] += 1
        self._alive[i] = False
        self._dead_count += 1
        self._epoch += 1
        if neighbours and self._edge_buf is not None:
            # Compact survivors into fresh arrays in insertion order; the
            # committed prefix of the retired buffer is never written again.
            self._materialise_edge_buf()
            self.edge_mirror_compactions += 1
        self._edge_view = None
        return len(neighbours)

    def grow(self, count: int = 1) -> int:
        """Append ``count`` fresh live object slots; return the new ``n``."""
        if count <= 0:
            raise ValueError("grow count must be positive")
        self._adjacency.extend([] for _ in range(count))
        self._adj_weights.extend([] for _ in range(count))
        self._node_mirror.extend([None] * count)
        self._node_epochs.extend([0] * count)
        self._alive.extend([True] * count)
        self._n += count
        self._epoch += 1
        self._csr_mirror = None  # indptr length depends on n
        return self._n

    def revive(self, i: int) -> None:
        """Bring a tombstoned slot back to life (id recycling on insert).

        The slot comes back with an empty adjacency and a bumped epoch, so
        any cache that ever mentioned the dead incarnation notices.
        """
        self._check_index(i)
        if self._alive[i]:
            raise ValueError(f"object {i} is already alive")
        self._alive[i] = True
        self._dead_count -= 1
        self._node_epochs[i] += 1
        self._epoch += 1

    def restore_mutation_state(
        self,
        alive: Iterable[bool],
        epoch: int,
        node_epochs: Iterable[int],
    ) -> None:
        """Re-apply persisted tombstone/epoch state after an edge replay.

        Used by v3 archive restore: the caller replays the surviving edges
        into a fresh graph, then installs the persisted alive mask and the
        (strictly larger-than-derived) stored epochs so fingerprint and
        staleness semantics match the mutated original exactly.
        """
        alive = list(alive)
        node_epochs = [int(e) for e in node_epochs]
        if len(alive) != self._n or len(node_epochs) != self._n:
            raise ValueError("mutation state length does not match graph size")
        if epoch < self._epoch:
            raise ValueError(
                f"stored epoch {epoch} below the replayed edge epoch {self._epoch}"
            )
        for i in range(self._n):
            if node_epochs[i] < self._node_epochs[i]:
                raise ValueError(
                    f"stored node epoch {node_epochs[i]} for object {i} below "
                    f"its replayed degree {self._node_epochs[i]}"
                )
            if not alive[i] and self._adjacency[i]:
                raise ValueError(f"tombstoned object {i} still has edges")
        self._alive = [bool(a) for a in alive]
        self._dead_count = sum(1 for a in self._alive if not a)
        self._epoch = int(epoch)
        self._node_epochs = node_epochs
        self._edge_view = None
        self._csr_mirror = None

    def _materialise_edge_buf(self) -> None:
        """(Re)build the flat edge buffer from the weights dict."""
        m = len(self._weights)
        i_ids = np.empty(m, dtype=np.int64)
        j_ids = np.empty(m, dtype=np.int64)
        weights = np.empty(m, dtype=np.float64)
        for idx, ((i, j), w) in enumerate(self._weights.items()):
            i_ids[idx] = i
            j_ids[idx] = j
            weights[idx] = w
        self._edge_buf = (i_ids, j_ids, weights)
        self._edge_buf_len = m

    # -- iteration --------------------------------------------------------------

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over known edges as ``(i, j, weight)`` with ``i < j``."""
        for (i, j), w in self._weights.items():
            yield i, j, w

    def neighbors(self, i: int) -> Iterable[int]:
        """Sorted ids of objects whose distance to ``i`` is known."""
        self._check_index(i)
        return iter(self._adjacency[i])

    def adjacency_list(self, i: int) -> List[int]:
        """The sorted adjacency array of ``i`` (do not mutate)."""
        self._check_index(i)
        return self._adjacency[i]

    def neighbor_items(self, i: int) -> Iterator[Tuple[int, float]]:
        """Iterate ``(neighbour, weight)`` pairs for node ``i``."""
        self._check_index(i)
        return zip(self._adjacency[i], self._adj_weights[i])

    # -- NumPy mirrors ---------------------------------------------------------

    def adjacency_arrays(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Flat NumPy mirror of node ``i``'s adjacency: ``(ids, weights)``.

        Ids are sorted and unique; ``weights[k]`` is the known distance to
        ``ids[k]``.  The arrays are rebuilt lazily when :meth:`node_epoch`
        has moved since the previous call and must not be mutated.
        """
        self._check_index(i)
        epoch = self._node_epochs[i]
        mirror = self._node_mirror[i]
        if mirror is None or mirror[0] != epoch:
            self.node_mirror_rebuilds += 1
            degree = len(self._adjacency[i])
            ids = np.fromiter(self._adjacency[i], dtype=np.int64, count=degree)
            weights = np.fromiter(self._adj_weights[i], dtype=np.float64, count=degree)
            mirror = (epoch, ids, weights)
            self._node_mirror[i] = mirror
        return mirror[1], mirror[2]

    def _append_edge_row(self, i: int, j: int, weight: float) -> None:
        """Keep the materialised edge mirror current at insert time.

        Runs under the caller's exclusive (write) discipline — the same one
        that guards ``add_edge`` itself — so readers only ever slice the
        committed prefix and never mutate shared state.  Capacity doubles
        on demand; old views stay valid because the committed prefix of a
        retired buffer is never written again.
        """
        buf = self._edge_buf
        idx = self._edge_buf_len
        if idx >= buf[0].shape[0]:
            new_cap = max(2 * buf[0].shape[0], idx + 1)
            grown = (
                np.empty(new_cap, dtype=np.int64),
                np.empty(new_cap, dtype=np.int64),
                np.empty(new_cap, dtype=np.float64),
            )
            for new, old in zip(grown, buf):
                new[:idx] = old[:idx]
            buf = grown
            self._edge_buf = buf
        buf[0][idx] = i
        buf[1][idx] = j
        buf[2][idx] = weight
        self._edge_buf_len = idx + 1
        self.edge_mirror_appends += 1

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat NumPy mirror of the whole edge set: ``(i_ids, j_ids, weights)``.

        Rows appear in resolution (insertion) order with ``i < j``.  Do not
        mutate the arrays.  The mirror is materialised on first use (one
        full rebuild, counted in :attr:`edge_mirror_rebuilds`) and then
        *extended in place by each insert* (:attr:`edge_mirror_appends`) —
        an epoch bump never triggers a redundant whole-mirror rebuild, and
        read-only workloads leave both counters untouched.
        """
        m = len(self._weights)
        if self._edge_buf is None:
            self.edge_mirror_rebuilds += 1
            self._materialise_edge_buf()
        buf = self._edge_buf
        view = self._edge_view
        if view is None or view[0] != self._epoch:
            view = (self._epoch, buf[0][:m], buf[1][:m], buf[2][:m])
            self._edge_view = view
        return view[1], view[2], view[3]

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Symmetric CSR view of the known adjacency: ``(indptr, indices, weights)``.

        ``indices[indptr[u]:indptr[u + 1]]`` are the sorted known
        neighbours of ``u`` with matching ``weights`` — the layout the
        CSR kernels in :mod:`repro.bounds.kernels` consume.  A mirror
        keyed on :attr:`epoch` is rebuilt vectorised from the flat edge
        columns.  Do not mutate the arrays.
        """
        mirror = self._csr_mirror
        if mirror is None or mirror[0] != self._epoch:
            self.csr_mirror_rebuilds += 1
            i_ids, j_ids, w = self.edge_arrays()
            rows = np.concatenate([i_ids, j_ids])
            cols = np.concatenate([j_ids, i_ids])
            data = np.concatenate([w, w])
            order = np.lexsort((cols, rows))
            indices = cols[order]
            weights = data[order]
            counts = np.bincount(rows, minlength=self._n)
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            mirror = (self._epoch, indptr, indices, weights)
            self._csr_mirror = mirror
        return mirror[1], mirror[2], mirror[3]

    def common_neighbors(self, i: int, j: int) -> Iterator[int]:
        """Sorted-merge intersection of the adjacency lists of ``i`` and ``j``.

        This is the triangle-enumeration primitive of the Tri Scheme
        (Algorithm 2 of the paper).
        """
        a = self._adjacency[i]
        b = self._adjacency[j]
        # Iterate over the shorter list and bisect into the longer one when the
        # lists have very different lengths; otherwise do a linear merge.
        if len(a) > len(b):
            a, b = b, a
        if len(b) > 8 * max(len(a), 1):
            for v in a:
                pos = bisect_left(b, v)
                if pos < len(b) and b[pos] == v:
                    yield v
            return
        ia = ib = 0
        while ia < len(a) and ib < len(b):
            va, vb = a[ia], b[ib]
            if va == vb:
                yield va
                ia += 1
                ib += 1
            elif va < vb:
                ia += 1
            else:
                ib += 1

    def unknown_pairs(self) -> Iterator[Edge]:
        """Iterate every pair whose distance is still unknown (i < j).

        Walks each node's sorted adjacency alongside the candidate range so
        known pairs are skipped by a pointer advance instead of a dict probe
        per pair.
        """
        n = self._n
        for i in range(n):
            if not self._alive[i]:
                continue
            adj = self._adjacency[i]
            pos = bisect_right(adj, i)  # first neighbour above i
            nxt = adj[pos] if pos < len(adj) else n
            for j in range(i + 1, n):
                if j == nxt:
                    pos += 1
                    nxt = adj[pos] if pos < len(adj) else n
                    continue
                if not self._alive[j]:
                    continue
                yield (i, j)

    def copy(self) -> "PartialDistanceGraph":
        """Deep copy of the graph (weights, adjacency, epochs, tombstones)."""
        clone = PartialDistanceGraph(self._n)
        clone._weights = dict(self._weights)
        clone._adjacency = [list(adj) for adj in self._adjacency]
        clone._adj_weights = [list(ws) for ws in self._adj_weights]
        clone._epoch = self._epoch
        clone._node_epochs = list(self._node_epochs)
        clone._alive = list(self._alive)
        clone._dead_count = self._dead_count
        return clone

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self._n:
            raise InvalidObjectError(i, self._n)
