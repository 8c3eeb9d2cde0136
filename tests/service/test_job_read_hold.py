"""The job-long read hold: queued writers still get in, and no job leaks it.

Each engine job takes the shared side of the engine lock once, for its whole
run.  These tests pin the two promises that make that safe: a writer queued
behind a running job commits before the job's next bound read, and every
terminal status leaves the lock free.
"""

import os
import sys
import threading
import time

import pytest

from repro.core.oracle import DistanceOracle
from repro.dynamic import DynamicObjectSet, Insert
from repro.graphs.naive import DirectResolver
from repro.service import JobStatus, ProximityEngine
from repro.spaces.matrix import random_metric_matrix
from repro.spaces.vector import EuclideanSpace


def _wait_for(predicate, timeout=10.0):
    """Poll ``predicate`` until true; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


def _writer_gets_in(engine, timeout=1.0) -> bool:
    acquired = threading.Event()

    def writer():
        with engine._rw.write_locked():
            acquired.set()

    threading.Thread(target=writer, daemon=True).start()
    return acquired.wait(timeout)


def _half_warm_engine(objects):
    """An engine whose graph holds one earlier job's edges, so bounds prune."""
    engine = ProximityEngine.for_space(objects, provider="tri", job_workers=1)
    assert engine.submit_job("knn", query=1, k=3).result(30).ok
    return engine


def _provider_call_charges(space, query, k):
    """Charged oracle calls seen at each provider bound call of a knn job."""
    engine = _half_warm_engine(DynamicObjectSet.wrap(space, initial=24))
    charges = []
    inner = engine.bounder.bounds

    def bounds(i, j):
        charges.append(engine.oracle.calls)
        return inner(i, j)

    engine.bounder.bounds = bounds
    try:
        assert engine.submit_job("knn", query=query, k=k).result(30).ok
    finally:
        engine.close(snapshot=False)
    return charges


class TestWriterLiveness:
    def test_queued_writer_commits_before_the_next_bound_read(self, rng):
        space = EuclideanSpace(rng.random((30, 2)))
        query, k = 0, 3
        kth = sorted(space.distance(query, c) for c in range(1, 24))[k - 1]
        payload = max(range(24, 30), key=lambda p: space.distance(query, p))
        # The inserted object is too far to enter the answer, so the job's
        # answer must equal a cold scan of the post-mutation live set.
        assert space.distance(query, payload) > kth
        # Pause at a bound call the next one follows with no resolution in
        # between: only the bound read's step-aside can let the writer in.
        charges = _provider_call_charges(space, query, k)
        pause_at = next(
            n for n in range(2, len(charges)) if charges[n - 1] == charges[n]
        )

        objects = DynamicObjectSet.wrap(space, initial=24)
        engine = _half_warm_engine(objects)
        calls = 0
        paused, resume, written = threading.Event(), threading.Event(), threading.Event()
        written_at_next_call = []
        inner = engine.bounder.bounds

        def bounds(i, j):
            nonlocal calls
            calls += 1
            if calls == pause_at:
                paused.set()
                resume.wait(10)
            elif calls == pause_at + 1:
                written_at_next_call.append(written.is_set())
            return inner(i, j)

        engine.bounder.bounds = bounds

        def writer():
            with engine._rw.write_locked():
                engine.apply_mutations([Insert(payload)])
                written.set()

        try:
            job = engine.submit_job("knn", query=query, k=k)
            assert paused.wait(10)
            assert engine._rw._active_readers == 1  # the paused job's hold
            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            _wait_for(lambda: engine._rw._waiting_writers == 1)
            assert not written.is_set()
            resume.set()
            result = job.result(30)
            thread.join(10)
        finally:
            resume.set()
            engine.close(snapshot=False)

        assert not thread.is_alive()
        assert result.ok, result.error
        assert written_at_next_call == [True]
        alive = objects.alive_ids()
        assert len(alive) == 25
        expected = DirectResolver(objects.oracle()).knearest(query, alive, k)
        assert [tuple(e) for e in result.value] == expected


@pytest.fixture
def hooked(rng):
    """A cold engine whose distance function runs ``box["hook"]`` first."""
    matrix = random_metric_matrix(20, rng)
    box = {"hook": None}

    def fn(i, j):
        if box["hook"] is not None:
            box["hook"]()
        return float(matrix[i, j])

    engine = ProximityEngine(DistanceOracle(fn, 20), provider="tri", job_workers=1)
    yield engine, box
    engine.close(snapshot=False)


def _pause_first_evaluation(box):
    """Block the first oracle evaluation; return (entered, release) events."""
    entered, release = threading.Event(), threading.Event()

    def hook():
        entered.set()
        assert release.wait(10)

    box["hook"] = hook
    return entered, release


class TestNoLeakedHold:
    def _assert_lock_free(self, engine):
        assert engine._rw._active_readers == 0
        assert _writer_gets_in(engine)

    def test_completed(self, hooked):
        engine, _ = hooked
        result = engine.submit_job("knn", query=0, k=3).result(30)
        assert result.status is JobStatus.COMPLETED
        self._assert_lock_free(engine)

    def test_partial(self, hooked):
        engine, _ = hooked
        result = engine.submit_job("mst", oracle_budget=3).result(30)
        assert result.status is JobStatus.PARTIAL
        self._assert_lock_free(engine)

    def test_cancelled_mid_run(self, hooked):
        engine, box = hooked
        entered, release = _pause_first_evaluation(box)
        job = engine.submit_job("knn", query=0, k=3)
        assert entered.wait(10)
        assert job.cancel()
        release.set()
        assert job.result(30).status is JobStatus.CANCELLED
        self._assert_lock_free(engine)

    def test_expired_mid_run(self, hooked):
        engine, box = hooked
        entered, release = _pause_first_evaluation(box)
        job = engine.submit_job("knn", query=0, k=3, deadline=1.0)
        assert entered.wait(10)
        _wait_for(lambda: time.monotonic() >= job.deadline_at)
        release.set()
        assert job.result(30).status is JobStatus.EXPIRED
        self._assert_lock_free(engine)

    def test_failed_in_unlocked_evaluation(self, hooked):
        engine, box = hooked

        def hook():
            assert not engine._rw.read_held  # evaluation runs unlocked
            raise RuntimeError("oracle down")

        box["hook"] = hook
        result = engine.submit_job("knn", query=0, k=3).result(30)
        assert result.status is JobStatus.FAILED
        assert "oracle down" in result.error
        self._assert_lock_free(engine)


def test_more_workers_than_cores_with_a_writer_hammering(rng):
    """Held reads, step-asides and commits interleaved at a fine switch rate.

    Every answer must equal the bound-free scan, and a pair paid twice or a
    commit lost between holds would break ``oracle.calls == num_edges``.
    """
    space = EuclideanSpace(rng.random((40, 2)))
    workers = 2 * (os.cpu_count() or 1) + 2
    engine = ProximityEngine.for_space(space, provider="tri", job_workers=workers)
    stop = threading.Event()
    writes = 0

    def writer():
        nonlocal writes
        while not stop.wait(0.0005):  # a pause, or writer preference starves readers
            with engine._rw.write_locked():
                writes += 1

    hammer = threading.Thread(target=writer, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        hammer.start()
        jobs = [(q, engine.submit_job("knn", query=q, k=4)) for q in range(space.n)]
        results = [(q, job.result(60)) for q, job in jobs]
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        hammer.join(10)
        engine.close(snapshot=False)
    assert not hammer.is_alive() and writes > 0
    reference = DirectResolver(space.oracle())
    for q, result in results:
        assert result.ok, result.error
        assert [tuple(e) for e in result.value] == reference.knearest(q, range(space.n), 4)
    assert engine.oracle.calls == engine.graph.num_edges
    assert engine._rw._active_readers == 0
