"""Per-layer tracing from outside the program, for the traced benchmark run.

:func:`install` wraps the public entry points of each layer — the lock, the
bound providers and their kernel, the partial graph, the engine's job
submission, mutation batches and index search — with timers and counters
that land in one :class:`LayerTrace`.  The untraced run installs nothing:
a program process is traced for its whole life or not at all.

Request-path spans (``backend.handle_request``, ``engine.submit_to_result``,
``engine.job``) carry the client-minted request id that arrives in the
request's ``rid`` field; inner layers are aggregated per run.

Shard processes rebuild the space from a handle in a fresh interpreter, so
they opt in through :func:`trace_this_process_from_env`: when
``PERFBENCH_TRACE_DIR`` is set, the shard installs the same wrappers and
writes its aggregate to that directory when it exits.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class LayerTrace:
    """Thread-safe counters, latency samples and request spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.counters: Dict[str, float] = {}
            self.samples: Dict[str, List[float]] = {}
            self.spans: List[Dict[str, Any]] = []
            self.meta: Dict[str, Any] = {}

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def span(self, name: str, start: float, end: float, parent: Optional[str],
             rid: Optional[int], **extra: Any) -> None:
        row = {"name": name, "start": start, "end": end, "parent": parent, "rid": rid}
        row.update(extra)
        with self._lock:
            self.spans.append(row)

    # Per-thread state: the request id being served and nesting depths.
    @property
    def rid(self) -> Optional[int]:
        return getattr(self._local, "rid", None)

    @rid.setter
    def rid(self, value: Optional[int]) -> None:
        self._local.rid = value

    def enter(self, layer: str) -> bool:
        """True when this is the outermost call of ``layer`` on this thread."""
        depth = getattr(self._local, layer, 0)
        setattr(self._local, layer, depth + 1)
        return depth == 0

    def leave(self, layer: str) -> None:
        setattr(self._local, layer, getattr(self._local, layer) - 1)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "spans": list(self.spans),
                "meta": dict(self.meta),
            }


#: Wrapped attributes, process-wide (wrapping patches classes and modules).
_patches: List[tuple] = []


def _patch(owner: Any, name: str, wrapper_factory: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, name)
    _patches.append((owner, name))
    setattr(owner, name, functools.wraps(original)(wrapper_factory(original)))


def _timed(trace: LayerTrace, layer: str, batch: bool = False):
    """Wrapper factory: count calls, pairs and time of the outermost ``layer`` call."""

    def factory(original):
        def wrapper(self, *args, **kwargs):
            if batch:
                args = (list(args[0]),) + args[1:]
            outermost = trace.enter(layer)
            start = time.perf_counter()
            try:
                return original(self, *args, **kwargs)
            finally:
                trace.leave(layer)
                if outermost:
                    trace.add(f"{layer}.s", time.perf_counter() - start)
                    trace.add(f"{layer}.calls")
                    trace.add(f"{layer}.pairs", len(args[0]) if batch else 1)

        return wrapper

    return factory


def install(trace: LayerTrace) -> None:
    """Wrap every traced layer's public entry points (idempotent per process)."""
    if _patches:
        return
    from repro.bounds import kernels
    from repro.bounds.tri import TriScheme
    from repro.core.bounds import IntersectionBounder
    from repro.core.locking import ReadWriteLock
    from repro.core.partial_graph import PartialDistanceGraph
    from repro.core.tiering import WeakBoundProvider
    from repro.service import engine as engine_module
    from repro.service.engine import ProximityEngine
    from repro.service.jobs import Job
    from repro.service.sharding import ShardedEngine

    import common

    for mode in ("read", "write"):
        def lock_factory(original, mode=mode):
            def acquire(self):
                start = time.perf_counter()
                original(self)
                trace.add(f"lock.{mode}_wait_s", time.perf_counter() - start)
                trace.add(f"lock.{mode}_acquires")
            return acquire
        _patch(ReadWriteLock, f"acquire_{mode}", lock_factory)

    # Every provider shares one "bounds" depth counter, so an intersection
    # of Tri and the weak tier is timed once, at its outermost call.
    for provider in (TriScheme, IntersectionBounder, WeakBoundProvider):
        _patch(provider, "bounds", _timed(trace, "bounds"))
        _patch(provider, "bounds_many", _timed(trace, "bounds", batch=True))

    def kernel_factory(original):
        def tri_frontier(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                trace.add("kernels.tri_frontier.s", time.perf_counter() - start)
                trace.add("kernels.tri_frontier.calls")
        return tri_frontier
    _patch(kernels, "tri_frontier", kernel_factory)

    _patch(PartialDistanceGraph, "add_edge", _timed(trace, "graph.add_edge"))

    def oracle_factory(original):
        def distance(self, i, j):
            start = time.perf_counter()
            try:
                return original(self, i, j)
            finally:
                trace.add("oracle.busy_s", time.perf_counter() - start)
                trace.add("oracle.evals")
        return distance
    _patch(common.BenchSpace, "distance", oracle_factory)

    submitted: Dict[int, Any] = {}

    def submit_factory(original):
        def submit(self, spec):
            job = original(self, spec)
            fingerprint = str(self.fingerprint or "")
            if "|shard=" in fingerprint:
                trace.meta["shard"] = int(fingerprint.rsplit("|shard=", 1)[1].split("/")[0])
            submitted[id(job)] = trace.rid
            return job
        return submit
    _patch(ProximityEngine, "submit", submit_factory)

    def result_factory(original):
        def result(self, timeout=None):
            out = original(self, timeout)
            if id(self) not in submitted:
                return out
            rid = submitted.pop(id(self))
            end = time.monotonic()
            kind = self.spec.kind
            waited = end - self.submitted_at
            job = out.latency_seconds
            trace.sample("queue.wait_s", max(0.0, waited - job))
            trace.sample(f"engine.job_s.{kind}", job)
            trace.add("engine.job_s", job)
            trace.add("engine.warm_resolutions", out.warm_resolutions)
            if kind == "search_index":
                trace.add("graphs.search_strong_calls", out.charged_calls)
            stats = out.resolver_stats
            if stats is not None:
                trace.add("resolver.decided_by_bounds", stats.decided_by_bounds)
                trace.add("resolver.decided_by_oracle", stats.decided_by_oracle)
                trace.add("resolver.oracle_resolutions", stats.oracle_resolutions)
                trace.add("resolver.bound_time_s", stats.bound_time_s)
                trace.add("resolver.bound_queries", stats.bound_queries)
                trace.add("resolver.bound_cache_hits", stats.bound_cache_hits)
            trace.span("engine.submit_to_result", self.submitted_at, end,
                       "backend.handle_request", rid, kind=kind)
            trace.span("engine.job", end - job, end, "engine.submit_to_result", rid, kind=kind)
            return out
        return result
    _patch(Job, "result", result_factory)

    def mutate_factory(original):
        def apply_mutations(self, mutations):
            start = time.perf_counter()
            out = original(self, mutations)
            trace.sample("dynamic.apply_s", time.perf_counter() - start)
            trace.add("dynamic.maintenance_strong_calls", out.strong_calls)
            trace.add("dynamic.invalidated",
                      out.edges_dropped + out.memo_purged + out.oracle_forgotten)
            return out
        return apply_mutations
    _patch(ProximityEngine, "apply_mutations", mutate_factory)

    def search_factory(original):
        def graph_search(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                trace.sample("graphs.search_s", time.perf_counter() - start)
        return graph_search
    _patch(engine_module, "graph_search", search_factory)

    def sharded_run_factory(original):
        def run(self, spec, timeout=None):
            out = original(self, spec, timeout)
            end = time.monotonic()
            trace.span("sharding.scatter", end - out.latency_seconds, end,
                       "backend.handle_request", trace.rid, kind=spec.kind)
            return out
        return run
    _patch(ShardedEngine, "run", sharded_run_factory)


def wrap_backend(trace: LayerTrace, backend: Any) -> None:
    """Time the front end's calls into the backend, keyed by request id."""
    original = backend.handle_request

    def handle_request(request: Dict[str, Any]) -> Dict[str, Any]:
        trace.rid = request.get("rid")
        start = time.monotonic()
        try:
            return original(request)
        finally:
            end = time.monotonic()
            trace.span("backend.handle_request", start, end, "request", trace.rid,
                       op=request.get("op"))
            trace.rid = None

    backend.handle_request = handle_request


def trace_this_process_from_env() -> None:
    """Install tracing in a shard process when the traced run asks for it.

    The aggregate is written to ``$PERFBENCH_TRACE_DIR/layers-<pid>.json``
    when the process exits.  The process that owns the front end installs
    its own trace and is left alone here.
    """
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory or _patches:
        return
    trace = LayerTrace()
    install(trace)

    def dump() -> None:
        path = os.path.join(directory, f"layers-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace.snapshot(), fh)

    atexit.register(dump)
