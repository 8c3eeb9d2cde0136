"""Unit tests for the reader/writer lock."""

import threading
import time

import pytest

from repro.core.locking import ReadWriteLock


class TestBasics:
    def test_read_then_release(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            assert lock.read_held
        assert not lock.read_held

    def test_write_then_release(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            assert lock.write_held
        assert not lock.write_held

    def test_reads_are_reentrant(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with lock.read_locked():
                assert lock.read_held
            assert lock.read_held

    def test_writes_are_reentrant(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():
                assert lock.write_held

    def test_writer_may_read(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.read_locked():
                assert lock.write_held

    def test_upgrade_rejected(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()


class TestExclusion:
    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        observed = []
        started = threading.Event()

        def reader():
            started.set()
            with lock.read_locked():
                observed.append("read")

        lock.acquire_write()
        t = threading.Thread(target=reader)
        t.start()
        started.wait(5)
        time.sleep(0.05)
        assert observed == []  # reader blocked behind the writer
        lock.release_write()
        t.join(timeout=5)
        assert observed == ["read"]

    def test_readers_exclude_writer(self):
        lock = ReadWriteLock()
        observed = []

        def writer():
            with lock.write_locked():
                observed.append("write")

        lock.acquire_read()
        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.05)
        assert observed == []
        lock.release_read()
        t.join(timeout=5)
        assert observed == ["write"]

    def test_concurrent_readers_overlap(self):
        lock = ReadWriteLock()
        inside = []
        barrier = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                inside.append(1)
                barrier.wait()  # all three must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert len(inside) == 3

    def test_writer_not_starved_by_reader_stream(self):
        # With readers continuously overlapping (the lock is never free of
        # readers for long), writer preference must still let a writer in
        # promptly: once it queues, new read acquisitions wait behind it.
        lock = ReadWriteLock()
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                with lock.read_locked():
                    time.sleep(0.002)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            time.sleep(0.05)  # let the reader stream saturate the lock
            start = time.monotonic()
            with lock.write_locked():
                waited = time.monotonic() - start
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5)
        # Without preference the writer could wait unboundedly; with it the
        # wait is roughly one reader critical section.  2s is very generous.
        assert waited < 2.0

    def test_writer_preference(self):
        # A waiting writer goes before readers that arrive after it.
        lock = ReadWriteLock()
        order = []
        lock.acquire_read()

        writer_waiting = threading.Event()

        def writer():
            writer_waiting.set()
            with lock.write_locked():
                order.append("write")

        def late_reader():
            with lock.read_locked():
                order.append("read")

        tw = threading.Thread(target=writer)
        tw.start()
        writer_waiting.wait(5)
        time.sleep(0.05)  # let the writer reach its wait
        tr = threading.Thread(target=late_reader)
        tr.start()
        time.sleep(0.05)
        lock.release_read()
        tw.join(timeout=5)
        tr.join(timeout=5)
        assert order[0] == "write"


def _wait_for(predicate, timeout=5.0):
    """Poll ``predicate`` until true; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


def _queue_writer(lock):
    """Start a writer thread; return it and the event it sets once inside."""
    acquired = threading.Event()

    def writer():
        with lock.write_locked():
            acquired.set()

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    _wait_for(lambda: lock._waiting_writers == 1)
    return thread, acquired


class TestWakeups:
    def test_writer_queued_behind_two_readers_wakes_on_the_last_exit(self):
        lock = ReadWriteLock()
        holding = [threading.Event(), threading.Event()]
        leave = [threading.Event(), threading.Event()]

        def reader(idx):
            with lock.read_locked():
                holding[idx].set()
                leave[idx].wait(5)

        readers = [threading.Thread(target=reader, args=(i,), daemon=True) for i in range(2)]
        for t in readers:
            t.start()
        for event in holding:
            assert event.wait(5)
        writer, acquired = _queue_writer(lock)
        leave[0].set()
        readers[0].join(5)
        assert not acquired.is_set()  # the second reader still holds
        leave[1].set()
        assert acquired.wait(5)
        for t in (readers[0], readers[1], writer):
            t.join(5)
            assert not t.is_alive()


class TestStepAside:
    def test_noop_without_a_waiting_writer(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            lock.step_aside()
            assert lock.read_held
            assert lock._active_readers == 1

    def test_queued_writer_runs_before_step_aside_returns(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        try:
            writer, acquired = _queue_writer(lock)
            lock.step_aside()
            assert acquired.is_set()
            assert lock.read_held
        finally:
            lock.release_read()
        writer.join(5)
        assert not writer.is_alive()

    def test_nested_hold_is_kept(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with lock.read_locked():
                writer, acquired = _queue_writer(lock)
                lock.step_aside()  # cannot give up the outer scope's hold
                assert not acquired.is_set()
        assert acquired.wait(5)
        writer.join(5)
        assert not writer.is_alive()

    def test_read_released_gives_the_hold_up_for_the_block(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with lock.read_released():
                assert not lock.read_held
                with lock.write_locked():  # no upgrade error: nothing held
                    assert lock.write_held
            assert lock.read_held
        assert not lock.read_held
