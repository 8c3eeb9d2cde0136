"""Shared-memory columnar store of resolved edges (the CSR bound store).

The PR-2 flat NumPy mirrors proved that every hot bound kernel wants the
resolved-edge set as columns, not as Python objects.  This module promotes
those columns from lazy per-process caches to a **source of truth** that
lives in :mod:`multiprocessing.shared_memory`, so N engine shards can map
the same warm edge set read-only with zero copies.

Layout
------
A store named ``S`` is one small *header* block plus a chain of fixed-
capacity *segments*:

* ``S`` — eight ``int64`` slots: magic, layout version, universe size
  ``n``, segment capacity, segment count, edge count (== the graph's
  edge-insert epoch), and two reserved slots.
* ``S.s<k>`` — segment ``k``: three contiguous arrays of ``capacity``
  entries each (``i`` ids as ``int64``, ``j`` ids as ``int64``, weights as
  ``float64``), appended in resolution order.

Segments are **append-only and epoch-tagged**: rows never move, weights
never change, and the header's edge count only grows.  A writer fills the
current segment and bumps the edge count *after* the row is fully written,
so a reader that samples the header sees only complete rows; a reader
calls :meth:`CSRStore.refresh` to observe a later epoch and attaches any
new segments by name — it never copies or re-reads old rows.

Exactly one process may write (the single-writer rule every
:class:`~repro.core.partial_graph.PartialDistanceGraph` commit path already
obeys); any number may attach read-only.  Stores round-trip through the v2
snapshot format (:meth:`save` / :meth:`from_archive`), which is how a
sharded service gives every shard a warm, attach-only start.
"""

from __future__ import annotations

import json
import os
import secrets
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np
from multiprocessing import resource_tracker, shared_memory

Pair = Tuple[int, int]

_MAGIC = 0x43535253  # "CSRS"
_LAYOUT_VERSION = 1
_HEADER_SLOTS = 8
_HEADER_BYTES = _HEADER_SLOTS * 8

# Header slot indices.
_H_MAGIC, _H_VERSION, _H_N, _H_CAPACITY, _H_SEGMENTS, _H_EDGES = range(6)

#: Default rows per segment (24 bytes/row -> ~192 KiB segments).
DEFAULT_SEGMENT_CAPACITY = 8192


def _unregister(shm: shared_memory.SharedMemory) -> None:
    """Stop the resource tracker from owning an *attached* segment.

    On CPython < 3.13 ``SharedMemory(name=...)`` registers the block with
    the per-process resource tracker even when ``create=False``; when the
    attaching process exits, the tracker unlinks a segment the owner is
    still serving.  Attach-side blocks therefore unregister immediately —
    only the creating process may destroy shared state.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker API moved
        pass


class _Segment:
    """One attached shared-memory segment, exposed as three column views."""

    __slots__ = ("shm", "i", "j", "w")

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int) -> None:
        self.shm = shm
        span = capacity * 8
        buf = shm.buf
        self.i = np.ndarray((capacity,), dtype=np.int64, buffer=buf[0:span])
        self.j = np.ndarray((capacity,), dtype=np.int64, buffer=buf[span : 2 * span])
        self.w = np.ndarray(
            (capacity,), dtype=np.float64, buffer=buf[2 * span : 3 * span]
        )

    def close(self) -> None:
        # Views must be dropped before the mapping may close.
        self.i = self.j = self.w = None  # type: ignore[assignment]
        self.shm.close()


class CSRStore:
    """Append-only shared-memory edge columns with an epoch-tagged header.

    Build with :meth:`create` (owner/writer), :meth:`attach` (read-only
    peer), or :meth:`from_archive`.  The owner must
    eventually call :meth:`unlink`; every attacher just :meth:`close`\\ s.
    """

    def __init__(
        self,
        header: shared_memory.SharedMemory,
        segments: List[_Segment],
        *,
        name: str,
        owner: bool,
        writable: bool,
    ) -> None:
        self._header_shm = header
        self._header = np.ndarray((_HEADER_SLOTS,), dtype=np.int64, buffer=header.buf)
        self._segments = segments
        self.name = name
        self.owner = owner
        self.writable = writable
        self._closed = False
        #: Metadata carried over from :meth:`from_archive` (not stored in
        #: shared memory — shared state is numeric columns only).
        self.metadata: Dict[str, Any] = {}
        self._num_edges = int(self._header[_H_EDGES])
        self._columns_cache: Optional[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        n: int,
        *,
        name: Optional[str] = None,
        segment_capacity: int = DEFAULT_SEGMENT_CAPACITY,
    ) -> "CSRStore":
        """Create an empty writable store for a universe of ``n`` objects."""
        if n <= 0:
            raise ValueError("a store needs a positive universe size")
        if segment_capacity < 1:
            raise ValueError("segment_capacity must be positive")
        if name is None:
            name = f"repro-csr-{os.getpid()}-{secrets.token_hex(4)}"
        header = shared_memory.SharedMemory(name=name, create=True, size=_HEADER_BYTES)
        hdr = np.ndarray((_HEADER_SLOTS,), dtype=np.int64, buffer=header.buf)
        hdr[:] = 0
        hdr[_H_MAGIC] = _MAGIC
        hdr[_H_VERSION] = _LAYOUT_VERSION
        hdr[_H_N] = n
        hdr[_H_CAPACITY] = segment_capacity
        return cls(header, [], name=name, owner=True, writable=True)

    @classmethod
    def attach(cls, name: str) -> "CSRStore":
        """Attach to an existing store read-only (zero-copy)."""
        header = shared_memory.SharedMemory(name=name)
        _unregister(header)
        hdr = np.ndarray((_HEADER_SLOTS,), dtype=np.int64, buffer=header.buf)
        if int(hdr[_H_MAGIC]) != _MAGIC:
            header.close()
            raise ValueError(f"shared memory block {name!r} is not a CSR store")
        if int(hdr[_H_VERSION]) != _LAYOUT_VERSION:
            version = int(hdr[_H_VERSION])
            header.close()
            raise ValueError(
                f"CSR store {name!r} uses layout version {version}; "
                f"this build reads version {_LAYOUT_VERSION}"
            )
        store = cls(header, [], name=name, owner=False, writable=False)
        store.refresh()
        return store

    @classmethod
    def from_archive(
        cls,
        path,
        *,
        name: Optional[str] = None,
        segment_capacity: Optional[int] = None,
        expected_fingerprint: Optional[str] = None,
    ) -> "CSRStore":
        """Build a store from a v1/v2 snapshot archive.

        The archive's integrity checks run exactly as in
        :func:`repro.core.persistence.load_archive` (epoch and per-node
        epoch counters must rebuild from the edge columns), and
        ``expected_fingerprint`` is verified against the stored metadata
        when given.  The loaded columns land in one right-sized segment, so
        a subsequent :meth:`attach` serves them zero-copy.
        """
        from repro.core.exceptions import SnapshotMismatchError
        from repro.core.persistence import load_columns

        cols = load_columns(path)
        if expected_fingerprint is not None:
            theirs = cols.metadata.get("fingerprint")
            if theirs != expected_fingerprint:
                raise SnapshotMismatchError(expected_fingerprint, str(theirs))
        capacity = segment_capacity or max(len(cols.i), DEFAULT_SEGMENT_CAPACITY)
        store = cls.create(cols.n, name=name, segment_capacity=capacity)
        store.extend_columns(cols.i, cols.j, cols.w)
        store.metadata = dict(cols.metadata)
        return store

    # -- introspection -------------------------------------------------------

    @property
    def n(self) -> int:
        """Universe size the edge ids index into."""
        return int(self._header[_H_N])

    @property
    def segment_capacity(self) -> int:
        """Rows per segment."""
        return int(self._header[_H_CAPACITY])

    @property
    def num_edges(self) -> int:
        """Edges visible to *this* handle (call :meth:`refresh` to advance)."""
        return self._num_edges

    @property
    def epoch(self) -> int:
        """Edge-insert epoch of the visible prefix (== :attr:`num_edges`)."""
        return self._num_edges

    @property
    def num_segments(self) -> int:
        """Segments attached by this handle."""
        return len(self._segments)

    def __len__(self) -> int:
        return self._num_edges

    # -- reading -------------------------------------------------------------

    def refresh(self) -> int:
        """Observe the writer's latest epoch; attach any new segments.

        Returns the new visible edge count.  Cheap when nothing changed:
        two header reads and no copies ever.
        """
        self._check_open()
        live_segments = int(self._header[_H_SEGMENTS])
        capacity = self.segment_capacity
        while len(self._segments) < live_segments:
            k = len(self._segments)
            shm = shared_memory.SharedMemory(name=f"{self.name}.s{k}")
            if not self.owner:
                _unregister(shm)
            self._segments.append(_Segment(shm, capacity))
        self._num_edges = int(self._header[_H_EDGES])
        return self._num_edges

    def iter_segments(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Zero-copy per-segment column views covering the visible prefix."""
        self._check_open()
        remaining = self._num_edges
        capacity = self.segment_capacity
        for seg in self._segments:
            if remaining <= 0:
                return
            rows = min(remaining, capacity)
            yield seg.i[:rows], seg.j[:rows], seg.w[:rows]
            remaining -= rows

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate visible edges as ``(i, j, weight)`` in insertion order."""
        for ids_i, ids_j, weights in self.iter_segments():
            for a, b, w in zip(ids_i, ids_j, weights):
                yield int(a), int(b), float(w)

    def edge_rows(self, start: int, stop: int) -> List[Tuple[int, int, float]]:
        """Visible rows ``[start, stop)`` as ``(i, j, weight)`` tuples.

        Slices only the segments the range overlaps, so a reader catching
        up on a writer's newest rows never re-walks the rows it has.
        """
        self._check_open()
        if not 0 <= start <= stop <= self._num_edges:
            raise ValueError(
                f"rows [{start}, {stop}) are outside the visible prefix "
                f"[0, {self._num_edges}); refresh() first"
            )
        capacity = self.segment_capacity
        rows: List[Tuple[int, int, float]] = []
        while start < stop:
            seg_idx, offset = divmod(start, capacity)
            seg = self._segments[seg_idx]
            end = min(capacity, offset + stop - start)
            rows.extend(zip(
                seg.i[offset:end].tolist(),
                seg.j[offset:end].tolist(),
                seg.w[offset:end].tolist(),
            ))
            start += end - offset
        return rows

    def edge_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The visible prefix as three flat arrays ``(i, j, w)``.

        Zero-copy (direct shared-memory views) while the store holds a
        single segment — the invariant for archive-loaded stores; the
        concatenation across multiple segments is cached per epoch.
        """
        self._check_open()
        m = self._num_edges
        if m <= self.segment_capacity:
            if not self._segments:
                empty_i = np.empty(0, dtype=np.int64)
                return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)
            seg = self._segments[0]
            return seg.i[:m], seg.j[:m], seg.w[:m]
        cache = self._columns_cache
        if cache is None or cache[0] != m:
            parts = list(self.iter_segments())
            cache = (
                m,
                np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]),
                np.concatenate([p[2] for p in parts]),
            )
            self._columns_cache = cache
        return cache[1], cache[2], cache[3]

    # -- writing -------------------------------------------------------------

    def append(self, i: int, j: int, w: float) -> int:
        """Append one resolved edge (canonical order); returns the edge count.

        Single-writer only.  The header's edge count is bumped *after* the
        row lands, so concurrent readers never observe a torn row.
        """
        self._check_open()
        if not self.writable:
            raise PermissionError(
                f"CSR store {self.name!r} was attached read-only; "
                "only the creating process may append"
            )
        if j < i:
            i, j = j, i
        capacity = self.segment_capacity
        idx = self._num_edges
        seg_idx, offset = divmod(idx, capacity)
        if seg_idx == len(self._segments):
            self._add_segment(seg_idx)
        seg = self._segments[seg_idx]
        seg.i[offset] = i
        seg.j[offset] = j
        seg.w[offset] = w
        self._num_edges = idx + 1
        self._header[_H_EDGES] = self._num_edges
        return self._num_edges

    def extend_columns(self, i, j, w) -> int:
        """Bulk-append equal-length id/weight columns; returns the edge count."""
        for a, b, weight in zip(i, j, w):
            self.append(int(a), int(b), float(weight))
        return self._num_edges

    def _add_segment(self, k: int) -> None:
        capacity = self.segment_capacity
        shm = shared_memory.SharedMemory(
            name=f"{self.name}.s{k}", create=True, size=capacity * 24
        )
        self._segments.append(_Segment(shm, capacity))
        # Publish the segment before any row in it becomes visible.
        self._header[_H_SEGMENTS] = len(self._segments)

    # -- persistence ---------------------------------------------------------

    def save(self, path, metadata: Optional[Dict[str, Any]] = None) -> None:
        """Write the visible prefix as a v2 snapshot archive.

        The emitted file is byte-compatible with
        :func:`repro.core.persistence.save_graph` — epochs and per-node
        epoch counters included — so engines, :meth:`from_archive`, and
        ``Engine.restore`` all read it interchangeably.
        """
        from repro.core.persistence import save_columns

        i, j, w = self.edge_columns()
        save_columns(path, self.n, i, j, w, metadata=metadata)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop this handle's mappings (shared state stays for peers)."""
        if self._closed:
            return
        self._closed = True
        self._columns_cache = None
        for seg in self._segments:
            seg.close()
        self._segments = []
        self._header = None  # type: ignore[assignment]
        self._header_shm.close()

    def unlink(self) -> None:
        """Destroy the shared blocks (owner only; implies :meth:`close`)."""
        if not self.owner:
            raise PermissionError(
                f"only the creating process may unlink CSR store {self.name!r}"
            )
        names = [f"{self.name}.s{k}" for k in range(len(self._segments))]
        self.close()
        for seg_name in names:
            try:
                shm = shared_memory.SharedMemory(name=seg_name)
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        try:
            shm = shared_memory.SharedMemory(name=self.name)
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"CSR store {self.name!r} handle is closed")

    def __enter__(self) -> "CSRStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.owner:
            self.unlink()
        else:
            self.close()

    def __reduce__(self):
        raise TypeError(
            "CSRStore handles do not pickle; pass store.name and "
            "CSRStore.attach() in the peer process instead"
        )

    def describe(self) -> Dict[str, Any]:
        """A JSON-friendly summary (used by stats surfaces)."""
        return {
            "name": self.name,
            "n": self.n,
            "edges": self.num_edges,
            "segments": self.num_segments,
            "segment_capacity": self.segment_capacity,
            "writable": self.writable,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRStore({json.dumps(self.describe())})"
