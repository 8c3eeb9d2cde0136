"""Batched, fault-tolerant oracle execution pipeline.

The paper's cost model treats every oracle call as a slow external request.
The framework core (:mod:`repro.core`) minimises *how many* calls are made;
this subsystem minimises *how long the remaining calls take* by resolving
each wave of inconclusive pairs concurrently, with per-call timeouts,
bounded exponential-backoff retry, and a write-through persistent cache so
repeated experiment runs never re-pay for a pair.

Layering::

    algorithms  ──►  SmartResolver (every resolution; argmin / knearest /
                         │  within resolve waves of inconclusive pairs)
                         ▼
                     BatchOracle          deterministic sorted commit
                         │                into DistanceOracle + graph
            ┌────────────┴────────────┐
            ▼                         ▼
    SerialExecutor /          CacheBackend (memory / SQLite)
    ThreadedExecutor          write-through persistence

Outputs stay bit-identical to the sequential path: workers only *evaluate*
distances; every commit (accounting, graph insert, bound update) happens on
the calling thread in canonical-pair sorted order.
"""

from repro.exec.batch_oracle import BatchOracle
from repro.exec.cache import (
    CacheBackend,
    MemoryCacheBackend,
    SqliteCacheBackend,
    open_cache,
)
from repro.exec.executor import (
    BatchReport,
    ExecutorStats,
    RetryPolicy,
    SerialExecutor,
    ThreadedExecutor,
    make_executor,
)

__all__ = [
    "BatchOracle",
    "BatchReport",
    "CacheBackend",
    "ExecutorStats",
    "MemoryCacheBackend",
    "RetryPolicy",
    "SerialExecutor",
    "SqliteCacheBackend",
    "ThreadedExecutor",
    "make_executor",
    "open_cache",
]
