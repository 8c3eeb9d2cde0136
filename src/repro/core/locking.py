"""Reader/writer discipline over shared proximity state.

A long-lived engine (:mod:`repro.service`) serves many concurrent query
jobs against **one** :class:`~repro.core.partial_graph.PartialDistanceGraph`
plus bound provider.  Two access classes exist:

* **reads** — bound queries, graph lookups, adjacency iteration.  Many may
  run at once: the graph's sorted lists, NumPy mirrors, and every provider
  cache are only *replaced wholesale* (epoch-keyed idempotent rebuilds), so
  concurrent readers always observe a consistent snapshot.
* **writes** — committing a resolved edge (graph insert + provider update +
  oracle accounting).  These mutate the sorted adjacency lists in place and
  bump the edge-insert epochs, so they must exclude every reader.

:class:`ReadWriteLock` implements exactly that discipline: shared readers,
exclusive writers, writer preference (a waiting writer blocks *new* reader
generations so sustained query traffic cannot starve commits), and
per-thread reentrancy for reads (a thread already holding the read or write
lock may re-enter the read side freely — bound predicates nest bound
queries).  Lock *upgrading* (read → write while still holding the read
side) deadlocks by construction and is rejected with ``RuntimeError``;
callers release their read hold before committing.

A reader may hold the read side for a long stretch of work — an engine job
holds it once for its whole run — and still keep writers waiting no longer
than one short read: :meth:`ReadWriteLock.step_aside`, called between
reads, gives the hold up and re-takes it whenever a writer is queued, and
:meth:`ReadWriteLock.read_released` gives it up around work that must not
hold it (an unlocked oracle call, a commit's write hold).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class ReadWriteLock:
    """Shared-read / exclusive-write lock with writer preference."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._waiting_writers = 0
        self._writer: int | None = None  # ident of the thread holding write
        self._local = threading.local()

    # -- per-thread hold counts --------------------------------------------

    def _counts(self):
        local = self._local
        if not hasattr(local, "reads"):
            local.reads = 0
            local.writes = 0
        return local

    @property
    def read_held(self) -> bool:
        """True when the calling thread holds the read side (possibly nested)."""
        return self._counts().reads > 0

    @property
    def write_held(self) -> bool:
        """True when the calling thread holds the write side."""
        return self._counts().writes > 0

    # -- read side ----------------------------------------------------------

    def acquire_read(self) -> None:
        local = self._counts()
        if local.writes > 0 or local.reads > 0:
            # Reentrant: a writer may read its own updates; nested reads on
            # the same thread must not queue behind a waiting writer (that
            # would deadlock against our own outer hold).
            local.reads += 1
            return
        with self._cond:
            while self._writer is not None or self._waiting_writers > 0:
                self._cond.wait()
            self._active_readers += 1
        local.reads = 1

    def release_read(self) -> None:
        local = self._counts()
        if local.reads <= 0:
            raise RuntimeError("release_read without a matching acquire_read")
        local.reads -= 1
        if local.reads > 0 or local.writes > 0:
            return
        with self._cond:
            self._active_readers -= 1
            # Only writers wait on readers; waiting readers wait on writers.
            if self._active_readers == 0 and self._waiting_writers:
                self._cond.notify_all()

    def step_aside(self) -> None:
        """Let a queued writer in: release and re-take this thread's read hold.

        A no-op unless a writer is waiting and the calling thread holds
        exactly one read hold and no write hold (a nested hold cannot be
        given up without breaking its outer scope).
        """
        if self._waiting_writers:
            local = self._counts()
            if local.reads == 1 and not local.writes:
                self.release_read()
                self.acquire_read()

    # -- write side ---------------------------------------------------------

    def acquire_write(self) -> None:
        local = self._counts()
        if local.writes > 0:
            local.writes += 1
            return
        if local.reads > 0:
            raise RuntimeError(
                "cannot upgrade a read hold to a write hold; "
                "release the read lock before committing"
            )
        ident = threading.get_ident()
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._active_readers > 0:
                    self._cond.wait()
                self._writer = ident
            finally:
                self._waiting_writers -= 1
        local.writes = 1

    def release_write(self) -> None:
        local = self._counts()
        if local.writes <= 0:
            raise RuntimeError("release_write without a matching acquire_write")
        local.writes -= 1
        if local.writes > 0:
            return
        with self._cond:
            self._writer = None
            self._cond.notify_all()

    # -- context managers ---------------------------------------------------

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """``with`` helper for the shared (read) side."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def read_released(self) -> Iterator[None]:
        """``with`` helper giving up this thread's read hold for the block."""
        self.release_read()
        try:
            yield
        finally:
            self.acquire_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """``with`` helper for the exclusive (write) side."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
