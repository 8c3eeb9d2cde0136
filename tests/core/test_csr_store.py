"""Tests for the shared-memory columnar resolved-edge store."""

import multiprocessing
import pickle

import pytest

from repro.core.csr_store import CSRStore
from repro.core.exceptions import SnapshotMismatchError
from repro.core.oracle import DistanceOracle
from repro.core.persistence import load_columns
from repro.service import ProximityEngine


EDGES = [(0, 1, 0.5), (1, 2, 0.3), (0, 2, 0.6), (3, 4, 1.25), (2, 5, 0.9)]


@pytest.fixture
def store():
    s = CSRStore.create(6, segment_capacity=4)
    yield s
    s.unlink()


def _filled(store):
    for i, j, w in EDGES:
        store.append(i, j, w)
    return store


class TestCreateAppend:
    def test_empty_store(self, store):
        assert store.n == 6
        assert store.num_edges == 0
        assert store.writable
        assert list(store.iter_edges()) == []

    def test_append_and_read_back(self, store):
        _filled(store)
        assert store.num_edges == len(EDGES)
        assert list(store.iter_edges()) == [(i, j, w) for i, j, w in EDGES]

    def test_appends_spill_into_new_segments(self, store):
        _filled(store)  # 5 edges, capacity 4 → 2 segments
        assert store.num_segments == 2
        i, j, w = store.edge_columns()
        assert list(i) == [e[0] for e in EDGES]
        assert list(w) == [e[2] for e in EDGES]

    def test_append_canonicalises_pairs(self, store):
        store.append(4, 1, 2.0)
        assert list(store.iter_edges()) == [(1, 4, 2.0)]

    def test_not_picklable(self, store):
        with pytest.raises(TypeError, match="do not pickle"):
            pickle.dumps(store)


class TestAttach:
    def test_attach_sees_existing_edges(self, store):
        _filled(store)
        reader = CSRStore.attach(store.name)
        try:
            assert not reader.writable
            assert reader.num_edges == len(EDGES)
            assert list(reader.iter_edges()) == list(store.iter_edges())
        finally:
            reader.close()

    def test_refresh_observes_later_appends(self, store):
        reader = CSRStore.attach(store.name)
        try:
            assert reader.num_edges == 0
            _filled(store)  # spills past the reader's attached segments
            assert reader.num_edges == 0  # snapshot view until refresh
            assert reader.refresh() == len(EDGES)
            assert list(reader.iter_edges()) == list(store.iter_edges())
        finally:
            reader.close()

    def test_attached_handle_rejects_writes(self, store):
        reader = CSRStore.attach(store.name)
        try:
            with pytest.raises(PermissionError):
                reader.append(0, 1, 1.0)
        finally:
            reader.close()

    def test_reader_close_does_not_destroy(self, store):
        _filled(store)
        reader = CSRStore.attach(store.name)
        reader.close()
        again = CSRStore.attach(store.name)  # segments must still exist
        try:
            assert again.num_edges == len(EDGES)
        finally:
            again.close()


class TestGraphInterop:
    def test_engine_merges_rows_published_after_attach(self, store):
        # A reader adopts the store empty, then merges exactly the rows its
        # writer publishes later — free, and only the named range.
        def unpaid(i, j):
            raise AssertionError(f"merged pair ({i}, {j}) reached the oracle")

        reader = CSRStore.attach(store.name)
        engine = ProximityEngine(DistanceOracle(unpaid, 6), job_workers=1)
        try:
            assert engine.adopt_store(reader) == 0
            _filled(store)
            reader.refresh()
            assert engine.adopt_store(reader, start=0, stop=3) == 3
            assert engine.adopt_store(reader, start=3) == len(EDGES) - 3
            i, j, w = engine.graph.edge_arrays()
            assert list(zip(i.tolist(), j.tolist(), w.tolist())) == EDGES
            assert engine.oracle(2, 5) == 0.9
            assert engine.oracle.calls == 0
        finally:
            engine.close(snapshot=False)
            reader.close()

    def test_merge_rejects_conflicting_weight(self, store):
        engine = ProximityEngine(DistanceOracle(lambda i, j: 1.0, 6), job_workers=1)
        try:
            engine.graph.add_edge(0, 1, 0.25)
            _filled(store)
            with pytest.raises(SnapshotMismatchError):
                engine.adopt_store(store)
            assert engine.graph.num_edges == 1  # checked before merging
        finally:
            engine.close(snapshot=False)

    def test_edge_rows_slices_across_segments(self, store):
        _filled(store)  # capacity 4: rows 3 and 4 straddle two segments
        assert store.edge_rows(3, 5) == EDGES[3:]
        assert store.edge_rows(2, 2) == []
        with pytest.raises(ValueError):
            store.edge_rows(0, len(EDGES) + 1)


class TestArchives:
    def test_save_and_from_archive(self, store, tmp_path):
        _filled(store)
        path = tmp_path / "snap.npz"
        store.save(path, metadata={"fingerprint": "fp-1"})
        loaded = CSRStore.from_archive(path, expected_fingerprint="fp-1")
        try:
            assert loaded.n == store.n
            assert list(loaded.iter_edges()) == list(store.iter_edges())
            assert loaded.metadata["fingerprint"] == "fp-1"
            assert loaded.num_segments == 1  # right-sized single segment
        finally:
            loaded.unlink()

    def test_from_archive_rejects_wrong_fingerprint(self, store, tmp_path):
        _filled(store)
        path = tmp_path / "snap.npz"
        store.save(path, metadata={"fingerprint": "fp-1"})
        with pytest.raises(SnapshotMismatchError):
            CSRStore.from_archive(path, expected_fingerprint="fp-other")

    def test_archive_is_v2_columnar(self, store, tmp_path):
        _filled(store)
        path = tmp_path / "snap.npz"
        store.save(path)
        cols = load_columns(path)
        assert cols.version == 2
        assert cols.epoch == len(EDGES)
        assert list(cols.w) == [e[2] for e in EDGES]


def _reader_main(name, expected, queue):
    """Spawn-target: attach the store by name and report what it sees."""
    store = CSRStore.attach(name)
    try:
        store.refresh()
        queue.put(list(store.iter_edges()))
    finally:
        store.close()


class TestCrossProcess:
    def test_child_process_sees_writer_edges(self, store):
        _filled(store)
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        p = ctx.Process(target=_reader_main, args=(store.name, len(EDGES), queue))
        p.start()
        seen = queue.get(timeout=60)
        p.join(timeout=60)
        assert p.exitcode == 0
        assert seen == [(i, j, w) for i, j, w in EDGES]
        # The child's exit must not have destroyed the segments (the
        # resource-tracker unregister path): the writer still reads fine.
        assert list(store.iter_edges()) == [(i, j, w) for i, j, w in EDGES]
