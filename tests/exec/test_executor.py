"""Tests for the retry/timeout executors."""

import time

import pytest

from repro.core.exceptions import OracleResolutionError
from repro.exec import RetryPolicy, SerialExecutor, ThreadedExecutor, make_executor


def simple_distance(i, j):
    return float(abs(i - j))


class FlakyFn:
    """Fails the first ``failures`` attempts per pair, then succeeds."""

    def __init__(self, failures=1, exc=RuntimeError):
        self.failures = failures
        self.exc = exc
        self.attempts = {}

    def __call__(self, i, j):
        seen = self.attempts.get((i, j), 0)
        self.attempts[(i, j)] = seen + 1
        if seen < self.failures:
            raise self.exc(f"transient failure {seen + 1} for {(i, j)}")
        return simple_distance(i, j)


FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


class TestRetryPolicy:
    def test_schedule_is_capped_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.3)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(4) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_executor_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            SerialExecutor(timeout=0)


@pytest.fixture(params=["serial", "threaded"])
def executor(request):
    built = make_executor(request.param, workers=4, retry=FAST_RETRY)
    yield built
    built.close()


class TestBothExecutors:
    def test_resolves_all_pairs(self, executor):
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        values, report = executor.run(simple_distance, pairs)
        assert values == {p: simple_distance(*p) for p in pairs}
        assert report.size == len(pairs)
        assert report.retries == 0
        assert executor.stats.submitted == len(pairs)
        assert executor.stats.resolved == len(pairs)
        assert executor.stats.largest_batch == len(pairs)

    def test_empty_batch(self, executor):
        values, report = executor.run(simple_distance, [])
        assert values == {}
        assert report.size == 0

    def test_retries_transient_failures(self, executor):
        fn = FlakyFn(failures=2)
        values, report = executor.run(fn, [(0, 3), (1, 4)])
        assert values == {(0, 3): 3.0, (1, 4): 3.0}
        assert report.retries == 4
        assert executor.stats.retries == 4

    def test_raises_after_exhausting_attempts(self, executor):
        fn = FlakyFn(failures=10)
        with pytest.raises(OracleResolutionError) as excinfo:
            executor.run(fn, [(0, 1)])
        assert excinfo.value.attempts == FAST_RETRY.max_attempts
        assert excinfo.value.pair == (0, 1)
        assert executor.stats.failures == 1

    def test_timeout_errors_counted(self, executor):
        fn = FlakyFn(failures=1, exc=TimeoutError)
        values, _ = executor.run(fn, [(0, 2)])
        assert values == {(0, 2): 2.0}
        assert executor.stats.timeouts == 1


class TestThreadedExecutor:
    def test_overlaps_slow_calls(self):
        def slow(i, j):
            time.sleep(0.05)
            return simple_distance(i, j)

        with ThreadedExecutor(workers=8, retry=FAST_RETRY) as executor:
            pairs = [(0, j) for j in range(1, 9)]
            start = time.perf_counter()
            values, _ = executor.run(slow, pairs)
            elapsed = time.perf_counter() - start
        assert values == {p: simple_distance(*p) for p in pairs}
        # 8 overlapping 50 ms calls must take far less than 8 × 50 ms.
        assert elapsed < 0.3

    def test_deadline_abandons_hung_call(self):
        calls = {}

        def hang_once(i, j):
            seen = calls.get((i, j), 0)
            calls[(i, j)] = seen + 1
            if seen == 0:
                time.sleep(0.5)
            return simple_distance(i, j)

        executor = ThreadedExecutor(workers=2, retry=FAST_RETRY, timeout=0.05)
        try:
            values, report = executor.run(hang_once, [(0, 4)])
        finally:
            executor.close()
        assert values == {(0, 4): 4.0}
        assert report.timeouts >= 1
        assert executor.stats.timeouts >= 1

    def test_queued_tasks_do_not_expire_before_starting(self):
        # 1 worker, 4 tasks of 40 ms with a 60 ms per-attempt deadline: the
        # deadline clock must start when each call begins executing, so none
        # of the queued tasks may time out.
        def slow(i, j):
            time.sleep(0.04)
            return simple_distance(i, j)

        executor = ThreadedExecutor(workers=1, retry=FAST_RETRY, timeout=0.06)
        try:
            values, report = executor.run(slow, [(0, j) for j in range(1, 5)])
        finally:
            executor.close()
        assert len(values) == 4
        assert report.timeouts == 0

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(workers=0)


class TestStats:
    def test_merge_sums_and_maxima(self):
        a = SerialExecutor(retry=FAST_RETRY)
        b = SerialExecutor(retry=FAST_RETRY)
        a.run(simple_distance, [(0, 1), (0, 2)])
        b.run(simple_distance, [(0, 3)])
        merged = a.stats.merge(b.stats)
        assert merged.batches == 2
        assert merged.submitted == 3
        assert merged.largest_batch == 2

    def test_copy_is_independent(self):
        executor = SerialExecutor(retry=FAST_RETRY)
        snapshot = executor.stats.copy()
        executor.run(simple_distance, [(0, 1)])
        assert snapshot.submitted == 0
        assert executor.stats.submitted == 1


def test_make_executor_rejects_unknown_name():
    with pytest.raises(ValueError):
        make_executor("distributed")
