"""Executors: how a batch of oracle calls actually runs.

An executor takes a distance function plus a set of canonical pairs and
returns ``{pair: distance}``, applying the fault-tolerance policy every
production oracle needs — per-call timeout, bounded exponential-backoff
retry, failure accounting.  Two strategies:

* :class:`SerialExecutor` — one call at a time on the calling thread; the
  reference semantics (and the right choice for CPU-bound local metrics).
* :class:`ThreadedExecutor` — a persistent thread pool; calls overlap, so a
  batch of ``B`` slow requests takes roughly ``ceil(B / workers)`` request
  latencies instead of ``B``.  Because worker threads only *evaluate* the
  distance function (no shared-state mutation), results are committed by the
  caller in deterministic order and outputs stay bit-identical to serial.

Timeouts: the threaded executor enforces a real deadline per attempt — an
attempt that overruns is abandoned (its thread finishes in the background
and the result is discarded) and the pair is retried.  The serial executor
cannot preempt a running call; it treats ``TimeoutError`` raised by the
distance function as a timeout, which is how synchronous client libraries
surface the condition.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Tuple

from repro.core.exceptions import OracleResolutionError

Pair = Tuple[int, int]
DistanceFn = Callable[[int, int], float]

#: Default worker count for the threaded executor.
DEFAULT_WORKERS = 8


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``base_delay · multiplier^(k-1)``, capped.

    ``max_attempts`` counts the first try plus retries; ``max_attempts=1``
    disables retrying entirely.  The schedule is deterministic (no jitter)
    so failure-injection experiments reproduce exactly.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (1-based)."""
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        return min(self.max_delay, self.base_delay * self.multiplier ** (retry_index - 1))


@dataclass
class ExecutorStats:
    """Cumulative counters for one executor instance."""

    batches: int = 0
    submitted: int = 0
    resolved: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    max_in_flight: int = 0
    largest_batch: int = 0
    real_seconds: float = 0.0
    simulated_seconds_saved: float = 0.0

    def merge(self, other: "ExecutorStats") -> "ExecutorStats":
        """Combine two counters (sums; maxima for the high-water marks)."""
        return ExecutorStats(
            batches=self.batches + other.batches,
            submitted=self.submitted + other.submitted,
            resolved=self.resolved + other.resolved,
            retries=self.retries + other.retries,
            timeouts=self.timeouts + other.timeouts,
            failures=self.failures + other.failures,
            max_in_flight=max(self.max_in_flight, other.max_in_flight),
            largest_batch=max(self.largest_batch, other.largest_batch),
            real_seconds=self.real_seconds + other.real_seconds,
            simulated_seconds_saved=self.simulated_seconds_saved
            + other.simulated_seconds_saved,
        )

    def copy(self) -> "ExecutorStats":
        return replace(self)


@dataclass(frozen=True)
class BatchReport:
    """What happened while running one batch."""

    size: int
    retries: int
    timeouts: int
    elapsed_seconds: float


class BaseExecutor:
    """Shared retry bookkeeping for the concrete executors."""

    name = "base"
    #: Calls that can overlap; governs the simulated-latency pricing
    #: ``ceil(batch / parallelism)`` applied by :class:`BatchOracle`.
    parallelism = 1

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        self.retry = retry or RetryPolicy()
        self.timeout = timeout
        self.stats = ExecutorStats()
        self._batch_size_hist = None

    def instrument(self, registry) -> None:
        """Expose executor accounting on a ``repro.obs`` metrics registry.

        ``ExecutorStats`` remains the single writer; every counter and
        gauge is callback-backed so the registry and ``self.stats`` can
        never disagree, whichever moment either is read.  Batch sizes are
        additionally observed into a histogram at dispatch time.
        """
        stats = self.stats
        registry.counter(
            "repro_exec_batches_total", "Executor batches dispatched.",
            fn=lambda: stats.batches,
        )
        registry.counter(
            "repro_exec_submitted_total", "Pair evaluations submitted to executors.",
            fn=lambda: stats.submitted,
        )
        registry.counter(
            "repro_exec_resolved_total", "Pair evaluations completed by executors.",
            fn=lambda: stats.resolved,
        )
        registry.counter(
            "repro_exec_retries_total", "Evaluations retried after a failure.",
            fn=lambda: stats.retries,
        )
        registry.counter(
            "repro_exec_timeouts_total", "Evaluations that hit the per-call timeout.",
            fn=lambda: stats.timeouts,
        )
        registry.counter(
            "repro_exec_failures_total", "Evaluations that exhausted every retry.",
            fn=lambda: stats.failures,
        )
        registry.counter(
            "repro_exec_seconds_total", "Wall-clock seconds spent inside batches.",
            fn=lambda: stats.real_seconds,
        )
        registry.gauge(
            "repro_exec_max_in_flight", "Peak concurrently in-flight evaluations.",
            fn=lambda: stats.max_in_flight,
        )
        registry.gauge(
            "repro_exec_largest_batch", "Largest batch dispatched so far.",
            fn=lambda: stats.largest_batch,
        )
        from repro.obs.registry import BATCH_SIZE_BUCKETS

        self._batch_size_hist = registry.histogram(
            "repro_exec_batch_size",
            BATCH_SIZE_BUCKETS,
            help_text="Distribution of executor batch sizes.",
        )

    def run(self, fn: DistanceFn, pairs: Iterable[Pair]) -> Tuple[Dict[Pair, float], BatchReport]:
        """Evaluate ``fn`` on every pair, returning values plus a report."""
        raise NotImplementedError

    def warm(self) -> None:
        """Pre-create any lazy resources (no-op for serial).

        Long-lived callers (the service engine) warm the executor at
        construction so the first batch doesn't pay pool start-up, and so
        lazy initialisation never races concurrent submitters.
        """

    def close(self) -> None:
        """Release executor resources (no-op for serial)."""

    def __enter__(self) -> "BaseExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shared bookkeeping -------------------------------------------------

    def _start_batch(self, pairs: List[Pair]) -> float:
        self.stats.batches += 1
        self.stats.submitted += len(pairs)
        self.stats.largest_batch = max(self.stats.largest_batch, len(pairs))
        if self._batch_size_hist is not None and pairs:
            self._batch_size_hist.observe(len(pairs))
        return time.perf_counter()

    def _finish_batch(
        self, started: float, size: int, retries: int, timeouts: int
    ) -> BatchReport:
        elapsed = time.perf_counter() - started
        self.stats.resolved += size
        self.stats.real_seconds += elapsed
        return BatchReport(
            size=size, retries=retries, timeouts=timeouts, elapsed_seconds=elapsed
        )


class SerialExecutor(BaseExecutor):
    """Resolve pairs one at a time with retry/backoff on the calling thread."""

    name = "serial"
    parallelism = 1

    def run(self, fn: DistanceFn, pairs: Iterable[Pair]) -> Tuple[Dict[Pair, float], BatchReport]:
        pairs = list(pairs)
        started = self._start_batch(pairs)
        self.stats.max_in_flight = max(self.stats.max_in_flight, min(1, len(pairs)))
        results: Dict[Pair, float] = {}
        retries = timeouts = 0
        for pair in pairs:
            attempt = 1
            while True:
                try:
                    results[pair] = fn(*pair)
                    break
                except Exception as exc:
                    if isinstance(exc, TimeoutError):
                        timeouts += 1
                        self.stats.timeouts += 1
                    if attempt >= self.retry.max_attempts:
                        self.stats.failures += 1
                        raise OracleResolutionError(pair, attempt) from exc
                    retries += 1
                    self.stats.retries += 1
                    delay = self.retry.delay(attempt)
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
        return results, self._finish_batch(started, len(pairs), retries, timeouts)


class ThreadedExecutor(BaseExecutor):
    """Resolve pairs concurrently on a persistent thread pool.

    Worker threads run the distance function only; no oracle or graph state
    is touched off the calling thread.  Each attempt has an optional real
    deadline (``timeout`` seconds); expired attempts are abandoned and
    retried with backoff (the backoff sleep runs *in the worker*, so the
    coordinator never blocks on it).
    """

    name = "threaded"

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        super().__init__(retry=retry, timeout=timeout)
        self.workers = workers
        self.parallelism = workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-oracle"
            )
        return self._pool

    def warm(self) -> None:
        self._ensure_pool()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def run(self, fn: DistanceFn, pairs: Iterable[Pair]) -> Tuple[Dict[Pair, float], BatchReport]:
        pairs = list(pairs)
        started = self._start_batch(pairs)
        if not pairs:
            return {}, self._finish_batch(started, 0, 0, 0)
        pool = self._ensure_pool()
        results: Dict[Pair, float] = {}
        retries = timeouts = 0
        # future -> (pair, attempt, start-time cell written by the worker).
        # The deadline clock starts when the call *begins executing*, not at
        # submission, so tasks queued behind a full pool never expire early.
        pending: Dict[Future, Tuple[Pair, int, dict]] = {}

        def submit(pair: Pair, attempt: int, backoff: float) -> None:
            cell: dict = {"started": None}

            def task() -> float:
                if backoff > 0:
                    time.sleep(backoff)
                cell["started"] = time.monotonic()
                return fn(*pair)

            pending[pool.submit(task)] = (pair, attempt, cell)

        def retry_or_fail(pair: Pair, attempt: int, exc: BaseException) -> None:
            nonlocal retries
            if attempt >= self.retry.max_attempts:
                self.stats.failures += 1
                for future in pending:
                    future.cancel()
                raise OracleResolutionError(pair, attempt) from exc
            retries += 1
            self.stats.retries += 1
            submit(pair, attempt + 1, self.retry.delay(attempt))

        for pair in pairs:
            submit(pair, 1, 0.0)
        while pending:
            self.stats.max_in_flight = max(self.stats.max_in_flight, len(pending))
            poll = 0.05 if self.timeout is None else min(0.05, self.timeout / 4)
            done, _ = wait(set(pending), timeout=poll, return_when=FIRST_COMPLETED)
            for future in done:
                pair, attempt, _ = pending.pop(future)
                exc = future.exception()
                if exc is None:
                    results[pair] = future.result()
                    continue
                if isinstance(exc, TimeoutError):
                    timeouts += 1
                    self.stats.timeouts += 1
                retry_or_fail(pair, attempt, exc)
            if self.timeout is not None:
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, _, cell) in pending.items()
                    if cell["started"] is not None
                    and now >= cell["started"] + self.timeout
                ]
                for future in expired:
                    pair, attempt, _ = pending.pop(future)
                    # The worker may still be running; its eventual result is
                    # discarded — only committed values ever reach the oracle.
                    future.cancel()
                    timeouts += 1
                    self.stats.timeouts += 1
                    retry_or_fail(pair, attempt, TimeoutError(f"attempt overran {self.timeout}s"))
        return results, self._finish_batch(started, len(pairs), retries, timeouts)


def make_executor(
    name: str,
    workers: int = DEFAULT_WORKERS,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
) -> BaseExecutor:
    """Build an executor by CLI name (``"serial"`` or ``"threaded"``)."""
    key = name.lower()
    if key == "serial":
        return SerialExecutor(retry=retry, timeout=timeout)
    if key == "threaded":
        return ThreadedExecutor(workers=workers, retry=retry, timeout=timeout)
    raise ValueError(f"unknown executor {name!r}; choose 'serial' or 'threaded'")
