"""The persistent proximity-query engine.

A :class:`ProximityEngine` owns **one** shared
:class:`~repro.core.partial_graph.PartialDistanceGraph`, one bound provider,
and one distance oracle, and serves a stream of concurrently submitted query
jobs (kNN, range, nearest, medoid, kNN-graph, MST).  The paper's central
asset — the partial graph of already-paid-for distances — compounds across
queries: every edge one job resolves tightens bounds for *every* future
comparison, and because each job runs through an exactness-preserving
:class:`~repro.core.resolver.SmartResolver`, the reuse never changes a
single answer.

Concurrency discipline (see :mod:`repro.core.locking`):

* each job holds the **shared** side of a
  :class:`~repro.core.locking.ReadWriteLock` once, for its whole run, so
  bound queries and graph lookups pay no lock traffic; every bound read
  first steps aside for a queued writer, so a commit or mutation batch
  waits for one bound read, never for a whole job;
* expensive distance evaluations run **unlocked** (the job gives its hold
  up for them and for the commit that follows; they touch no shared
  state), so slow oracle calls from different jobs overlap;
* commits — oracle charge, graph insert (which bumps the edge-insert
  epochs), provider update, shared bound-memo invalidation — run under the
  **exclusive** side, so the epoch-keyed bound caches stay sound across
  interleaved queries.

Per-job fault isolation: a job that exhausts its oracle-call budget ends
``partial`` (with the refused pairs listed), a cancelled or deadline-expired
job ends ``cancelled``/``expired``, and a job whose oracle keeps failing
ends ``failed`` — none of them take the engine down.

Warm-state persistence: :meth:`ProximityEngine.snapshot` writes the graph
(plus a dataset fingerprint) through :mod:`repro.core.persistence`;
:meth:`ProximityEngine.restore` refuses mismatched snapshots and seeds the
oracle so a restarted service never re-buys a distance.

Dynamic universes (PR 9): an engine built over a
:class:`~repro.dynamic.objects.DynamicObjectSet` accepts
:meth:`ProximityEngine.apply_mutations` — an atomic insert/remove batch
applied under the exclusive lock that tombstones graph nodes, forgets
oracle cache rows, patches the bound provider incrementally (never a full
recompute) and re-establishes every standing query registered through
:meth:`subscribe_knn` / :meth:`subscribe_knng`, bounds-first, emitting
entered/left/reordered deltas that clients poll with a sequence cursor.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.algorithms import (
    k_nearest,
    knn_graph,
    nearest_neighbor,
    pam,
    prim_mst,
    range_query,
)
from repro.core.bounds import BoundProvider
from repro.core.exceptions import (
    ConfigurationError,
    JobBudgetExhaustedError,
    JobCancelledError,
    SnapshotMismatchError,
)
from repro.core.locking import ReadWriteLock
from repro.core.oracle import ComparisonOracle, DistanceOracle
from repro.core.partial_graph import PartialDistanceGraph
from repro.core.persistence import load_archive, save_graph
from repro.core.resolver import ResolverStats, SmartResolver
from repro.core.tiering import TieredOracle, WeakOracle
from repro.dynamic import (
    Mutation,
    MutationResult,
    Subscription,
    SubscriptionDelta,
    SubscriptionRegistry,
    apply_provider_mutations,
)
from repro.exec.executor import BaseExecutor, DEFAULT_WORKERS, make_executor
from repro.graphs import (
    NavigableGraph,
    build_hnsw,
    build_nsg,
    comparison_search,
    graph_search,
)
from repro.harness.providers import LANDMARK_PROVIDERS, make_provider
from repro.harness.stats import percentile
from repro.obs import (
    ANSWER_STRETCH_BUCKETS,
    LATENCY_BUCKETS_S,
    RESOLVER_METRICS,
    MetricsRegistry,
    SpanTracer,
    oracle_call_counter,
    publish_resolver_stats,
    resolver_stats_view,
)
from repro.service.jobs import TERMINAL_STATUSES, Job, JobResult, JobSpec, JobStatus
from repro.service.queue import JobQueue
from repro.service.server import dispatch
from repro.spaces.base import MetricSpace

Pair = Tuple[int, int]

#: Default number of job-worker threads.
DEFAULT_JOB_WORKERS = 2

#: Histogram buckets for entries entering/leaving a standing result per batch.
DELTA_SIZE_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0)

#: Job kinds whose algorithms scan ``range(n)`` internally and therefore
#: cannot run on a universe with tombstones.
_FULL_SCAN_KINDS = frozenset({"medoid", "knng", "mst"})


class _JobRuntime:
    """Mutable per-job state, and the hooks its resolver runs.

    The job holds the engine's shared lock once, for its whole run (see
    :meth:`ProximityEngine._execute`).  :meth:`read_guard` steps aside for a
    queued writer before every bound read; :meth:`note_known` and
    :meth:`before_charge` do the job's accounting and control.
    """

    __slots__ = (
        "job_id",
        "budget",
        "charged",
        "warm_hits",
        "touched",
        "cancel",
        "deadline_at",
        "expired",
        "stretch",
        "rw",
    )

    def __init__(self, job: Job, rw: ReadWriteLock) -> None:
        self.job_id = job.id
        self.budget = job.spec.oracle_budget
        self.stretch = job.spec.stretch
        self.charged = 0
        self.warm_hits = 0
        #: Canonical pairs this job has already looked at (so a warm pair is
        #: counted once, and pairs the job paid for itself never count).
        self.touched: Set[Pair] = set()
        self.cancel = job._cancel
        self.deadline_at = job.deadline_at
        self.expired = False
        self.rw = rw

    def read_guard(self) -> None:
        self.rw.step_aside()
        self.check_cancelled()

    def check_cancelled(self) -> None:
        if self.cancel.is_set():
            raise JobCancelledError(f"job {self.job_id} cancelled")
        if time.monotonic() >= self.deadline_at:
            self.expired = True
            raise JobCancelledError(f"job {self.job_id} deadline expired")

    def note_known(self, key: Pair) -> None:
        if key not in self.touched:
            self.touched.add(key)
            self.warm_hits += 1

    def before_charge(self, keys: List[Pair]) -> None:
        self.check_cancelled()
        if self.budget is not None and self.charged + len(keys) > self.budget:
            raise JobBudgetExhaustedError(self.budget, tuple(keys))


@dataclass(frozen=True)
class EngineStats:
    """One coherent snapshot of engine-wide accounting."""

    uptime_seconds: float
    job_workers: int
    queue_depth: int
    jobs_submitted: int
    jobs_completed: int
    jobs_partial: int
    jobs_failed: int
    jobs_cancelled: int
    jobs_expired: int
    #: Charged oracle calls since engine construction (bootstrap included).
    oracle_calls: int
    bootstrap_calls: int
    #: Distinct pairs jobs read from the warm shared state without paying —
    #: the per-job lower bound on calls saved vs running each job cold.
    warm_resolutions: int
    restored_edges: int
    snapshots_written: int
    graph_edges: int
    graph_epoch: int
    bound_queries: int
    bound_cache_hits: int
    #: Fraction of bound queries answered from the shared epoch memo.
    bound_memo_hit_rate: float
    latency_p50_s: float
    latency_p95_s: float
    #: Merged per-job resolver counters (dijkstra_runs and the weak-tier
    #: counters synced from the shared providers).
    resolver: ResolverStats = field(repr=False)
    #: Charged weak-tier (banded estimate) calls; 0 without a weak oracle.
    weak_calls: int = 0
    #: Bound queries the weak error band strictly tightened.
    weak_band: int = 0
    #: Object mutations applied via apply_mutations (inserts + removes).
    mutations_applied: int = 0
    #: Live standing-query subscriptions.
    subscriptions_active: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict (used by the socket server's ``stats`` op)."""
        out = asdict(self)
        out["resolver"] = asdict(self.resolver)
        return out


class ProximityEngine:
    """Long-lived, concurrent proximity-query service over one shared graph.

    Parameters
    ----------
    oracle:
        The accounting oracle.  Its distance function must be thread-safe:
        the engine evaluates it concurrently from job workers (and from a
        threaded executor when one is configured).
    provider:
        Bound-provider name (see ``repro.harness.providers.PROVIDER_NAMES``).
        Landmark providers bootstrap at construction; the spent calls are
        reported as ``bootstrap_calls``.
    max_distance:
        Diameter bound passed to the provider.
    num_landmarks:
        Landmark budget for landmark providers (default: paper's log2(n)).
    job_workers:
        Worker threads executing jobs (>= 1).
    executor:
        ``None`` (inline evaluation), an executor name (``"serial"`` /
        ``"threaded"``), or a ready :class:`~repro.exec.executor.BaseExecutor`.
        When present, distance evaluations go out as executor batches with
        retry/timeout fault tolerance, and candidate scans resolve waves as
        wide as its ``parallelism``.
    oracle_workers:
        Thread-pool size when ``executor="threaded"``.
    snapshot_path:
        Where periodic/on-close snapshots go (no snapshots when ``None``).
    snapshot_every:
        Write a snapshot whenever this many new edges have landed since the
        last one (checked between jobs, so the write never stalls a commit).
    fingerprint:
        Dataset identity string stored in snapshots and verified by
        :meth:`restore`.
    restore_from:
        Optional snapshot to restore before serving.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` to publish
        into.  A private registry is created when omitted, so every engine
        always has a ``/metrics``-ready surface at ``engine.registry``.
    weak_oracle:
        Optional :class:`~repro.core.tiering.WeakOracle` over the same
        universe.  When configured, every job runs against a base ∩ weak
        bound provider: cheap banded estimates tighten bounds so the strong
        oracle fires only on inconclusive pairs — answers stay
        byte-identical to a strong-only engine.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        provider: str = "tri",
        max_distance: float = math.inf,
        num_landmarks: Optional[int] = None,
        job_workers: int = DEFAULT_JOB_WORKERS,
        executor: Union[BaseExecutor, str, None] = None,
        oracle_workers: int = DEFAULT_WORKERS,
        snapshot_path: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        fingerprint: Optional[str] = None,
        restore_from: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        weak_oracle: Optional["WeakOracle"] = None,
    ) -> None:
        if job_workers < 1:
            raise ConfigurationError("job_workers must be at least 1")
        if snapshot_every is not None and snapshot_every < 1:
            raise ConfigurationError("snapshot_every must be a positive edge count")
        self.oracle = oracle
        self.provider_name = provider
        self.graph = PartialDistanceGraph(oracle.n)
        self.bounder: BoundProvider = make_provider(
            provider, self.graph, max_distance, num_landmarks
        )
        if isinstance(executor, str):
            executor = make_executor(executor, workers=oracle_workers)
        self.executor = executor
        if executor is not None:
            executor.warm()
        self.fingerprint = fingerprint
        self.snapshot_path = snapshot_path
        self.snapshot_every = snapshot_every

        self._rw = ReadWriteLock()
        self._oracle_lock = threading.RLock()
        self._exec_lock = threading.Lock()
        self._shared_memo: Dict[Pair, tuple] = {}
        self._stats_lock = threading.Lock()
        # Weak-tier mutation (estimate cache fills) happens under the
        # engine's *read* lock, so it gets its own mutex.
        self._weak_lock = threading.Lock()
        self.tiered: Optional[TieredOracle] = None
        self._weak_bounder: Optional[BoundProvider] = None
        if weak_oracle is not None:
            self.tiered = TieredOracle(oracle, weak_oracle)
            self._weak_bounder = self.tiered.bounder(
                self.graph,
                base=self.bounder,
                max_distance=max_distance,
                lock=self._weak_lock,
            )
        self._job_seq = 0
        self._latencies: List[float] = []
        self._edges_since_snapshot = 0
        self._started_at = time.monotonic()
        self._closed = False
        self._queue = JobQueue()
        self._workers: List[threading.Thread] = []
        #: The metric space behind the oracle, when built via for_space().
        #: Mutation batches need it to be a DynamicObjectSet (or any object
        #: with insert/remove); query-only engines leave it None.
        self.space: Optional[Any] = None
        #: True when the snapshot fingerprint came from space.fingerprint()
        #: (so it should track the live state), False for explicit ones.
        self._fingerprint_from_space = False
        self.subscriptions = SubscriptionRegistry()
        #: Built navigable-graph indexes by name (``build_index`` jobs),
        #: served by ``search_index`` jobs and persisted with snapshots.
        self.indexes: Dict[str, NavigableGraph] = {}
        self._indexes_lock = threading.Lock()
        self._comparison_calls = 0

        self.instrument(registry if registry is not None else MetricsRegistry())

        self.bootstrap_calls = 0
        if provider.lower() in LANDMARK_PROVIDERS:
            boot = SmartResolver(oracle, bounder=self.bounder, graph=self.graph)
            before = oracle.calls
            self.bounder.bootstrap(boot)
            self.bootstrap_calls = oracle.calls - before

        if restore_from is not None:
            self.restore(restore_from)

        self.graph.subscribe_edges(self._on_edge)
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-engine-{i}", daemon=True
            )
            for i in range(job_workers)
        ]
        for worker in self._workers:
            worker.start()

    def instrument(self, registry: MetricsRegistry) -> None:
        """Attach ``registry`` (the unified ``instrument`` convention).

        Declares every engine-owned metric family and rebinds the job span
        tracer.  Counters the engine increments itself (jobs, warm hits,
        snapshots) are plain; numbers that already have one authoritative
        owner (oracle calls, queue depth, graph size, provider Dijkstra
        runs, weak-tier calls) are callback-backed so the registry can
        never drift from them.
        """
        self.registry = registry
        self._register_metrics()
        #: Engine-side span tracer: one span per executed job, labeled by
        #: job kind, timed into ``repro_job_phase_seconds{span=<kind>}``.
        self.tracer = SpanTracer(
            registry=registry,
            histogram="repro_job_phase_seconds",
            root="engine",
        )

    def _register_metrics(self) -> None:
        r = self.registry
        self._m_submitted = r.counter(
            "repro_jobs_submitted_total", "Jobs accepted by submit()."
        )
        jobs = r.counter(
            "repro_jobs_total",
            "Finished jobs by terminal status.",
            labelnames=("status",),
        )
        self._m_job_status = {
            status: jobs.labels(status=status.value) for status in TERMINAL_STATUSES
        }
        self._m_warm = r.counter(
            "repro_warm_resolutions_total",
            "Distinct pairs jobs read from warm shared state without paying.",
        )
        self._m_snapshots = r.counter(
            "repro_snapshots_written_total", "Warm-state snapshots written to disk."
        )
        self._m_restored = r.counter(
            "repro_restored_edges_total",
            "Edges merged free of charge from snapshots or a shared store.",
        )
        self._m_latency = r.histogram(
            "repro_job_latency_seconds",
            LATENCY_BUCKETS_S,
            help_text="End-to-end job execution latency in seconds.",
        )
        self._m_answer_stretch = r.histogram(
            "repro_answer_stretch",
            ANSWER_STRETCH_BUCKETS,
            help_text=(
                "Realised stretch (estimate / lower bound) of approximate "
                "answers; bounded by the job's stretch budget."
            ),
        )
        oracle_call_counter(r, self.oracle)
        r.counter(
            "repro_bootstrap_calls_total",
            "Oracle calls spent bootstrapping landmark providers.",
            fn=lambda: self.bootstrap_calls,
        )
        r.counter(
            "repro_resolver_dijkstra_runs_total",
            "Dijkstra traversals run by the SPLUB bound provider.",
            fn=lambda: int(getattr(self.bounder, "dijkstra_runs", 0)),
        )
        if self.tiered is not None:
            # Weak-tier counters live on the shared provider (engine-wide,
            # not per-job), so they are callback-backed like dijkstra_runs;
            # registered before the pre-declare loop below so the loop
            # returns these families instead of plain counters.
            r.counter(
                "repro_resolver_weak_calls_total",
                "Charged weak-tier (banded estimate) oracle calls.",
                fn=lambda: int(getattr(self._weak_bounder, "weak_calls", 0)),
            )
            r.counter(
                "repro_resolver_weak_band_total",
                "Bound queries strictly tightened by a weak oracle's error band.",
                fn=lambda: int(getattr(self._weak_bounder, "weak_band", 0)),
            )
        # Pre-declare the remaining resolver counter families so a fresh
        # engine's /metrics surface already lists every documented name
        # (absent != zero to a scraper).
        for _field, metric, labels, help_text in RESOLVER_METRICS:
            family = r.counter(metric, help_text, labelnames=tuple(labels))
            if labels:
                family.labels(**labels)
        mutations = r.counter(
            "repro_mutations_total",
            "Object mutations applied via apply_mutations(), by kind.",
            labelnames=("kind",),
        )
        self._m_mutations = {
            kind: mutations.labels(kind=kind) for kind in ("insert", "remove")
        }
        self._m_invalidation = r.counter(
            "repro_invalidation_total",
            "Provider state invalidated by mutation maintenance, by counter.",
            labelnames=("what",),
        )
        self._m_delta_size = r.histogram(
            "repro_subscription_delta_size",
            DELTA_SIZE_BUCKETS,
            help_text=(
                "Entries entering or leaving a standing-query result per "
                "mutation batch (unchanged subscriptions observe nothing)."
            ),
        )
        indexes_built = r.counter(
            "repro_indexes_built_total",
            "Navigable-graph indexes built by build_index jobs, by kind.",
            labelnames=("kind",),
        )
        self._m_indexes_built = {
            kind: indexes_built.labels(kind=kind) for kind in ("hnsw", "nsg")
        }
        self._m_index_searches = r.counter(
            "repro_index_searches_total",
            "search_index queries answered from a built navigable graph.",
        )
        r.counter(
            "repro_comparison_calls_total",
            "Ordering queries answered by the comparison-only oracle mode.",
            fn=lambda: self._comparison_calls,
        )
        r.gauge(
            "repro_indexes_stored",
            "Built navigable-graph indexes held by the engine.",
            fn=lambda: len(self.indexes),
        )
        r.gauge(
            "repro_subscriptions_active",
            "Live standing-query subscriptions.",
            fn=lambda: self.subscriptions.active,
        )
        r.gauge(
            "repro_queue_depth", "Jobs waiting in the priority queue.",
            fn=lambda: len(self._queue),
        )
        r.gauge(
            "repro_job_workers", "Engine worker threads.",
            fn=lambda: len(self._workers),
        )
        r.gauge(
            "repro_engine_uptime_seconds", "Seconds since engine construction.",
            fn=lambda: time.monotonic() - self._started_at,
        )
        self.graph.instrument(r)
        if self.executor is not None:
            self.executor.instrument(r)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def for_space(
        cls,
        space: MetricSpace,
        provider: str = "tri",
        oracle_cost: float = 0.0,
        weak_oracle: Union[bool, "WeakOracle", None] = None,
        **kwargs: Any,
    ) -> "ProximityEngine":
        """Build an engine for a metric space with a derived fingerprint.

        ``weak_oracle=True`` asks the space for its native weak tier
        (:meth:`~repro.spaces.base.BaseSpace.weak_oracle`), raising
        :class:`~repro.core.exceptions.ConfigurationError` when the space
        has none; a ready :class:`~repro.core.tiering.WeakOracle` instance
        is used as given; ``None``/``False`` runs strong-only.

        The engine keeps a reference to ``space``: a mutable space (a
        :class:`~repro.dynamic.objects.DynamicObjectSet`) unlocks
        :meth:`apply_mutations`, and its state-derived ``fingerprint()``
        method, when present, supplies the snapshot fingerprint so restores
        check against the *current* live set.
        """
        oracle = space.oracle(cost_per_call=oracle_cost)
        weak: Optional[WeakOracle] = None
        if weak_oracle is True:
            weak = getattr(space, "weak_oracle", lambda: None)()
            if weak is None:
                raise ConfigurationError(
                    f"{type(space).__name__} declares no native weak oracle; "
                    "pass a WeakOracle instance instead"
                )
        elif weak_oracle:
            weak = weak_oracle
        own_fp = getattr(space, "fingerprint", None)
        from_space = callable(own_fp) and "fingerprint" not in kwargs
        kwargs.setdefault(
            "fingerprint", own_fp() if callable(own_fp) else space_fingerprint(space)
        )
        engine = cls(
            oracle,
            provider=provider,
            max_distance=space.diameter_bound(),
            weak_oracle=weak,
            **kwargs,
        )
        engine.space = space
        engine._fingerprint_from_space = from_space
        return engine

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Enqueue a job and return its handle immediately."""
        if self._closed:
            raise RuntimeError("engine is closed")
        self._validate_params(spec)
        with self._stats_lock:
            self._job_seq += 1
            job = Job(self._job_seq, spec)
        self._m_submitted.inc()
        self._queue.push(job)
        return job

    def submit_job(
        self,
        kind: str,
        *,
        priority: int = 0,
        oracle_budget: Optional[int] = None,
        deadline: Optional[float] = None,
        label: str = "",
        stretch: float = 1.0,
        **params: Any,
    ) -> Job:
        """Keyword-style :meth:`submit` convenience."""
        return self.submit(
            JobSpec(
                kind=kind,
                params=params,
                priority=priority,
                oracle_budget=oracle_budget,
                deadline=deadline,
                label=label,
                stretch=stretch,
            )
        )

    def run(self, spec: JobSpec, timeout: Optional[float] = None) -> JobResult:
        """Submit and wait — the synchronous convenience path."""
        return self.submit(spec).result(timeout)

    def _validate_params(self, spec: JobSpec) -> None:
        n = self.oracle.n
        for name in ("query", "root"):
            value = spec.params.get(name)
            if value is None:
                continue
            if not 0 <= int(value) < n:
                raise ValueError(
                    f"{name}={value} out of range for universe of size {n}"
                )
            if not self.graph.is_alive(int(value)):
                raise ValueError(f"{name}={value} refers to a removed object")

    # -- worker pool ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.pop(self._skip_dead)
            if job is None:
                return
            self._execute(job)

    def _skip_dead(self, job: Job) -> bool:
        """Drop cancelled/expired jobs at dequeue, finishing their handles."""
        if job.expired():
            self._finish(job, JobResult(status=JobStatus.EXPIRED))
            return True
        if not job._mark_running():
            self._finish(job, JobResult(status=JobStatus.CANCELLED))
            return True
        return False

    def _job_resolver(self, runtime: _JobRuntime) -> SmartResolver:
        """A plain resolver configured with the engine's discipline.

        Its bound memo is the engine's shared dict — epoch keys keep it
        sound across jobs, and an entry one job computes is served to every
        other job for free.  With a weak tier every job reads base ∩ weak.
        """
        resolver = SmartResolver(
            self.oracle,
            bounder=self.bounder if self._weak_bounder is None else self._weak_bounder,
            graph=self.graph,
            stretch=runtime.stretch,
            memo=self._shared_memo,
            stretch_hist=self._m_answer_stretch,
            read_guard=runtime.read_guard,
            note_known=runtime.note_known,
            before_charge=runtime.before_charge,
            resolve_step=functools.partial(self._resolve_step, runtime),
        )
        if self.executor is not None:
            resolver.wave_width = self.executor.parallelism
        return resolver

    def _resolve_step(self, runtime: _JobRuntime, keys: List[Pair], commit) -> None:
        """Evaluate ``keys`` unlocked, then commit them exclusively.

        The job gives its shared hold up for the distance evaluation (slow
        oracle calls from different jobs overlap) and for the commit, which
        runs under the exclusive lock in the given sorted order — the serial
        resolver's sequence, made atomic against readers.
        """
        with self._oracle_lock:
            values = {key: self.oracle.peek(*key) for key in keys}
        misses = [key for key, value in values.items() if value is None]
        for key in keys:
            if values[key] is not None:
                runtime.note_known(key)
        with self._rw.read_released():
            if misses:
                values.update(self._evaluate(misses))
            with self._rw.write_locked(), self._oracle_lock:
                runtime.charged += commit(keys, lambda _: values)
        # Paid for by this job: a later read of them is not a warm hit.
        runtime.touched.update(misses)

    def _execute(self, job: Job) -> None:
        runtime = _JobRuntime(job, self._rw)
        resolver = self._job_resolver(runtime)
        spec = job.spec
        status = JobStatus.COMPLETED
        value: Any = None
        unresolved: Tuple[Pair, ...] = ()
        error: Optional[str] = None
        label = spec.label or f"job-{job.id}:{spec.kind}"
        oracle_tracer = getattr(self.oracle, "tracer", None)
        start = time.perf_counter()
        try:
            with contextlib.ExitStack() as stack:
                # The engine's own span times the job by kind; the oracle's
                # tracer (thread-local) attributes charged calls to this
                # job's label without cross-worker interleaving.
                stack.enter_context(self.tracer.span(spec.kind))
                if isinstance(oracle_tracer, SpanTracer):
                    stack.enter_context(oracle_tracer.span(label))
                # One shared hold for the whole job (see _JobRuntime).
                stack.enter_context(self._rw.read_locked())
                value = self._run_kind(resolver, spec)
        except JobBudgetExhaustedError as exc:
            status = JobStatus.PARTIAL
            unresolved = exc.unresolved
            error = str(exc)
        except JobCancelledError as exc:
            status = JobStatus.EXPIRED if runtime.expired else JobStatus.CANCELLED
            error = str(exc)
        except Exception as exc:  # noqa: BLE001 - jobs must not kill workers
            status = JobStatus.FAILED
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        # Snapshot before publishing the result: once a caller sees the job
        # finished, any periodic snapshot its edges triggered is on disk.
        self._maybe_snapshot()
        self._finish(
            job,
            JobResult(
                status=status,
                value=value,
                unresolved=unresolved,
                charged_calls=runtime.charged,
                warm_resolutions=runtime.warm_hits,
                latency_seconds=latency,
                resolver_stats=resolver.stats,
                error=error,
            ),
        )

    def _run_kind(self, resolver: SmartResolver, spec: JobSpec) -> Any:
        p = spec.params
        kind = spec.kind
        mutated = self.graph.mutated
        if mutated and kind in _FULL_SCAN_KINDS:
            raise ValueError(
                f"{kind} jobs scan the whole universe and cannot run over "
                "tombstoned ids; on a mutated engine use subscribe_knng for "
                "standing kNN-graphs, or knn/range/nearest queries"
            )
        candidates = p.get("candidates")
        if candidates is None and mutated:
            # Point queries default to the live ids, not range(n).
            candidates = self.graph.alive_ids()
        if kind == "knn":
            return k_nearest(resolver, int(p["query"]), int(p["k"]), candidates)
        if kind == "range":
            return range_query(
                resolver,
                int(p["query"]),
                float(p["radius"]),
                candidates,
                include_query=bool(p.get("include_query", False)),
            )
        if kind == "nearest":
            return nearest_neighbor(resolver, int(p["query"]), candidates)
        if kind == "medoid":
            return pam(
                resolver,
                l=int(p.get("l", 1)),
                seed=int(p.get("seed", 0)),
                init=p.get("init", "random"),
            )
        if kind == "knng":
            return knn_graph(resolver, k=int(p.get("k", 5)))
        if kind == "mst":
            return prim_mst(resolver, root=int(p.get("root", 0)))
        if kind == "build_index":
            return self._run_build_index(resolver, p)
        if kind == "search_index":
            return self._run_search_index(resolver, p)
        raise ValueError(f"unknown job kind {kind!r}")  # pragma: no cover

    def _run_build_index(self, resolver: SmartResolver, p: Dict[str, Any]) -> Dict[str, Any]:
        """Build a navigable graph through the job's resolver and store it.

        Runs inside a normal job, so the build shares the engine's warm
        graph (``warm_resolutions`` counts pairs it reads for free), obeys
        the job's budget/deadline, and may use the weak tier or a stretch
        budget like any other job.  The built graph is stored under
        ``name`` (default: the graph kind) for ``search_index`` jobs and
        snapshot persistence.
        """
        graph_kind = str(p["graph"])
        nodes = self.graph.alive_ids() if self.graph.mutated else None
        if graph_kind == "hnsw":
            built = build_hnsw(
                resolver,
                m=int(p.get("m", 8)),
                ef_construction=int(p.get("ef", 32)),
                seed=int(p.get("seed", 0)),
                nodes=nodes,
            )
        elif graph_kind == "nsg":
            built = build_nsg(
                resolver, r=int(p.get("r", 8)), k=int(p.get("k", 16)), nodes=nodes
            )
        else:
            raise ValueError(f"unknown index graph kind {graph_kind!r} (hnsw or nsg)")
        name = str(p.get("name", graph_kind))
        with self._indexes_lock:
            self.indexes[name] = built
        self._m_indexes_built[graph_kind].inc()
        summary = built.summary()
        summary["name"] = name
        return summary

    def _run_search_index(self, resolver: SmartResolver, p: Dict[str, Any]) -> Any:
        """Answer a query from a built navigable graph.

        ``mode="comparison"`` runs the comparison-only oracle mode: the
        search observes orderings only (counted into
        ``repro_comparison_calls_total``) and the result carries ids but no
        distances.  The default numeric mode returns ascending
        ``(distance, id)`` pairs, with admission tests settled by bounds
        where conclusive — on a warm graph a search can cost zero strong
        calls.
        """
        name = str(p.get("name", p.get("graph", "")))
        with self._indexes_lock:
            if name:
                index = self.indexes.get(name)
            elif len(self.indexes) == 1:
                name, index = next(iter(self.indexes.items()))
            else:
                index = None
        if index is None:
            raise ValueError(
                f"no built index named {name!r}: run a build_index job first"
                + ("" if name else " (or pass name= with several indexes built)")
            )
        query = int(p["query"])
        k = int(p["k"])
        ef = int(p["ef"]) if p.get("ef") is not None else None
        self._m_index_searches.inc()
        if str(p.get("mode", "distance")) == "comparison":
            comparison = ComparisonOracle(resolver)
            ids = comparison_search(comparison, index, query, k, ef=ef)
            with self._stats_lock:
                self._comparison_calls += comparison.comparisons
            return {"ids": ids, "comparisons": comparison.comparisons, "index": name}
        return graph_search(resolver, index, query, k, ef=ef)

    def _finish(self, job: Job, result: JobResult) -> None:
        job._finish(result)
        self._m_job_status[result.status].inc()
        if result.warm_resolutions:
            self._m_warm.inc(result.warm_resolutions)
        if result.resolver_stats is not None:
            # Per-job resolver stats start from zero, so publishing the
            # absolute values folds exactly one job's delta into the
            # registry — the registry totals stay equal to the old
            # merged-ResolverStats accounting at every quiescent point.
            publish_resolver_stats(self.registry, result.resolver_stats)
        if result.latency_seconds > 0:
            with self._stats_lock:
                self._latencies.append(result.latency_seconds)
            self._m_latency.observe(result.latency_seconds)

    # -- oracle evaluation ---------------------------------------------------

    def _evaluate(self, keys: List[Pair]) -> Dict[Pair, float]:
        """Evaluate distance-function misses, possibly through the executor.

        Runs outside the reader/writer lock: evaluation touches no shared
        proximity state.  Executor batches are serialised by a dedicated
        mutex so the executor's internal accounting stays exact; evaluation
        concurrency comes from the executor's own thread pool.
        """
        fn = self.oracle.distance_fn
        if self.executor is None:
            return {key: float(fn(*key)) for key in keys}
        with self._exec_lock:
            values, report = self.executor.run(fn, keys)
        with self._oracle_lock:
            self.oracle.note_retries(report.retries)
            self.oracle.note_timeouts(report.timeouts)
        return values

    # -- mutation ------------------------------------------------------------

    def apply_mutations(self, mutations: Iterable[Mutation]) -> MutationResult:
        """Apply one insert/remove batch atomically; return its accounting.

        Runs entirely under the exclusive lock: object-set mutation, graph
        tombstoning/growth, oracle-cache forgetting, shared-memo purging,
        incremental provider maintenance (via
        :func:`~repro.dynamic.maintenance.apply_provider_mutations`) and the
        bounds-first re-establishment of every standing query — so queries
        observe either the whole batch or none of it.  Requires a mutable
        space (:meth:`for_space` over a
        :class:`~repro.dynamic.objects.DynamicObjectSet`) and a strong-only
        configuration: the weak tier caches per-pair estimates a recycled
        id would silently inherit.
        """
        batch = list(mutations)
        if self._closed:
            raise RuntimeError("engine is closed")
        space = self.space
        if space is None or not callable(getattr(space, "insert", None)):
            raise ConfigurationError(
                "mutations need a mutable space: build the engine with "
                "ProximityEngine.for_space(DynamicObjectSet(...))"
            )
        if self._weak_bounder is not None:
            raise ConfigurationError(
                "mutation batches are unsupported with a weak tier: the weak "
                "oracle caches per-pair estimates that a recycled id would "
                "silently inherit"
            )
        result = MutationResult()
        if not batch:
            result.epoch = self.graph.epoch
            return result
        with self._rw.write_locked():
            with self._oracle_lock:
                for mut in batch:
                    if mut.kind == "remove":
                        obj_id = int(mut.obj_id)
                        space.remove(obj_id)
                        result.edges_dropped += self.graph.remove_node(obj_id)
                        result.oracle_forgotten += self.oracle.forget(obj_id)
                        result.removed_ids.append(obj_id)
                    else:
                        new_id = space.insert(mut.payload)
                        if new_id >= self.graph.n:
                            self.graph.grow(new_id + 1 - self.graph.n)
                            self.oracle.grow(space.n)
                        else:
                            self.graph.revive(new_id)
                            result.oracle_forgotten += self.oracle.forget(new_id)
                        result.inserted_ids.append(new_id)
                touched = set(result.inserted_ids) | set(result.removed_ids)
                stale = [
                    k for k in self._shared_memo if k[0] in touched or k[1] in touched
                ]
                for key in stale:
                    del self._shared_memo[key]
                result.memo_purged += len(stale)
                maint = SmartResolver(
                    self.oracle, bounder=self.bounder, graph=self.graph
                )
                before = self.oracle.calls
                result.invalidation = apply_provider_mutations(
                    self.bounder,
                    result.inserted_ids,
                    result.removed_ids,
                    resolver=maint,
                )
                result.epoch = self.graph.epoch
                self._refresh_subscriptions(maint, result)
                # Charged cost of the whole batch: provider refills plus the
                # bounds-first standing-query re-establishment.
                result.strong_calls = self.oracle.calls - before
        for kind, ids in (
            ("insert", result.inserted_ids),
            ("remove", result.removed_ids),
        ):
            if ids:
                self._m_mutations[kind].inc(len(ids))
        for what, count in result.invalidation.items():
            if count:
                self._m_invalidation.labels(what=what).inc(count)
        return result

    # -- standing queries ----------------------------------------------------

    def subscribe_knn(self, query: int, k: int) -> Subscription:
        """Register a standing kNN query; returns its live subscription."""
        query, k = int(query), int(k)
        if not 0 <= query < self.graph.n or not self.graph.is_alive(query):
            raise ValueError(f"query={query} is not a live object")
        with self._rw.write_locked():
            with self._oracle_lock:
                resolver = SmartResolver(
                    self.oracle, bounder=self.bounder, graph=self.graph
                )
                pool = [c for c in self.graph.alive_ids() if c != query]
                result = [tuple(e) for e in resolver.knearest(query, pool, k)]
        return self.subscriptions.subscribe("knn", {"query": query, "k": k}, result)

    def subscribe_knng(self, k: int) -> Subscription:
        """Register a standing kNN-graph over the live ids (row map by id)."""
        k = int(k)
        with self._rw.write_locked():
            with self._oracle_lock:
                resolver = SmartResolver(
                    self.oracle, bounder=self.bounder, graph=self.graph
                )
                alive = self.graph.alive_ids()
                rows = {
                    u: tuple(
                        tuple(e)
                        for e in resolver.knearest(
                            u, [c for c in alive if c != u], k
                        )
                    )
                    for u in alive
                }
        return self.subscriptions.subscribe("knng", {"k": k}, rows)

    def subscription_deltas(
        self, sub_id: int, since: int = 0
    ) -> List[SubscriptionDelta]:
        """Deltas recorded for ``sub_id`` with ``seq > since``, oldest first."""
        return self.subscriptions.deltas(sub_id, since)

    def unsubscribe(self, sub_id: int) -> None:
        """Drop a standing query."""
        self.subscriptions.unsubscribe(sub_id)

    def _refresh_subscriptions(
        self, resolver: SmartResolver, result: MutationResult
    ) -> None:
        """Re-establish every standing query after a batch (bounds-first)."""
        subs = self.subscriptions.all()
        if not subs:
            return
        removed = set(result.removed_ids)
        inserted = list(dict.fromkeys(result.inserted_ids))
        alive = self.graph.alive_ids()
        for sub in subs:
            if sub.kind == "knn":
                new = self._refresh_knn(resolver, sub, inserted, removed, alive)
            else:
                new = self._refresh_knng(resolver, sub, inserted, removed, alive)
            delta = self.subscriptions.record(sub, new, result.epoch)
            if delta is not None:
                self._m_delta_size.observe(
                    float(len(delta.entered) + len(delta.left))
                )

    def _refresh_knn(self, resolver, sub, inserted, removed, alive):
        query = int(sub.params["query"])
        if not self.graph.is_alive(query) or query in removed:
            # The standing query's own object left (a recycled slot is a new
            # incarnation): the result empties until re-subscription.
            return []
        return self._refresh_row(
            resolver, query, sub.result, int(sub.params["k"]),
            query in inserted, inserted, removed, alive,
        )

    def _refresh_knng(self, resolver, sub, inserted, removed, alive):
        k = int(sub.params["k"])
        old = sub.result
        inserted_set = set(inserted)
        return {
            u: tuple(self._refresh_row(
                resolver, u, old.get(u, ()), k,
                u in inserted_set or u not in old, inserted, removed, alive,
            ))
            for u in alive
        }

    @staticmethod
    def _refresh_row(resolver, owner, row, k, new_owner, inserted, removed, alive):
        """One standing kNN row after a batch, re-established bounds-first."""
        survivors = [e for e in row if e[1] not in removed]
        if new_owner or len(survivors) < len(row):
            # Membership shrank (or the owner itself is new): recompute.
            pool = [c for c in alive if c != owner]
            return [tuple(e) for e in resolver.knearest(owner, pool, k)]
        # Bounds-first insert screening: with kth the current k-th distance,
        # LB(owner, x) > kth proves x outside the row — the final kth can
        # only shrink, so the skip stays sound as candidates accumulate.
        kth = survivors[k - 1][0] if len(survivors) >= k else math.inf
        merged = list(survivors)
        for x in inserted:
            if x == owner:
                continue
            if len(survivors) >= k and resolver.bounds(owner, x).lower > kth:
                continue
            merged.append((resolver.distance(owner, x), x))
        if len(merged) == len(survivors):
            return list(row)
        merged.sort()
        return [tuple(e) for e in merged[:k]]

    # -- persistence ---------------------------------------------------------

    def current_fingerprint(self) -> Optional[str]:
        """The dataset fingerprint of the *current* live state.

        A mutable space recomputes its state-derived fingerprint (so
        snapshots taken after a batch carry the post-mutation identity);
        engines with an explicit fingerprint (sharded shards carry
        plan-scoped ones) return it unchanged.
        """
        if self._fingerprint_from_space:
            own_fp = getattr(self.space, "fingerprint", None)
            if callable(own_fp):
                return own_fp()
        return self.fingerprint

    def _metadata(self) -> Dict[str, Any]:
        with self._indexes_lock:
            indexes = {name: g.to_dict() for name, g in self.indexes.items()}
        return {
            "fingerprint": self.current_fingerprint(),
            "oracle": type(self.oracle).__name__,
            "provider": self.provider_name,
            "n": self.oracle.n,
            # Built navigable graphs ride along in the archive metadata, so
            # a restored engine serves search_index jobs immediately.
            "indexes": indexes,
        }

    def snapshot(self, path: Optional[str] = None) -> str:
        """Write the warm graph to ``path`` (default: ``snapshot_path``).

        Taken under the shared lock: commits pause for the write, queries
        do not.
        """
        target = path or self.snapshot_path
        if target is None:
            raise ConfigurationError(
                "no snapshot path: pass one or configure snapshot_path"
            )
        with self._rw.read_locked():
            save_graph(self.graph, target, metadata=self._metadata())
        with self._stats_lock:
            self._edges_since_snapshot = 0
        self._m_snapshots.inc()
        return str(target)

    def restore(self, path: str) -> int:
        """Merge a snapshot's edges into the live graph, free of charge.

        Verifies the archive's universe size and dataset fingerprint first
        (:class:`~repro.core.exceptions.SnapshotMismatchError` on mismatch),
        then seeds the oracle cache and commits every novel edge under the
        exclusive lock.  Returns the number of newly added edges.
        """
        archive = load_archive(path)
        if archive.graph.n != self.oracle.n:
            raise SnapshotMismatchError(
                f"universe of {self.oracle.n}", f"universe of {archive.graph.n}"
            )
        theirs = archive.fingerprint
        mine = self.current_fingerprint()
        if mine is not None and theirs is not None and theirs != mine:
            raise SnapshotMismatchError(mine, theirs)
        with self._rw.write_locked():
            if archive.graph.mutated and (self.graph.num_edges or self.graph.mutated):
                # A mutated (v3) snapshot carries an alive mask and monotone
                # epochs that can only be installed over a pristine graph.
                raise SnapshotMismatchError(
                    "a pristine graph (mutated snapshots restore at startup)",
                    f"live graph at epoch {self.graph.epoch} "
                    f"with {self.graph.num_edges} edges",
                )
            added = self._merge_paid_edges(list(archive.graph.edges()))
            if archive.graph.mutated:
                n = archive.graph.n
                self.graph.restore_mutation_state(
                    [archive.graph.is_alive(u) for u in range(n)],
                    archive.graph.epoch,
                    [archive.graph.node_epoch(u) for u in range(n)],
                )
        persisted = (archive.metadata or {}).get("indexes", {})
        if persisted:
            with self._indexes_lock:
                for name, payload in persisted.items():
                    self.indexes[str(name)] = NavigableGraph.from_dict(payload)
        return added

    def adopt_store(
        self,
        store,
        expected_fingerprint: Optional[str] = None,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> int:
        """Merge rows ``[start, stop)`` of a CSR store, free of charge.

        A shard process adopts its coordinator's store at start-up and,
        before each job, the rows its peers published since.  The store is
        a :class:`~repro.core.csr_store.CSRStore` another process owns
        (attached read-only) or one this process created; ``stop`` defaults
        to the rows visible to this handle.  The graph never binds to the
        store: its own edge columns stay the only ones its bounds read.
        ``expected_fingerprint`` overrides ``self.fingerprint`` for the
        metadata check (sharded engines carry per-shard fingerprints while
        the store records the base dataset's).  Returns the number of newly
        added edges.
        """
        if store.n != self.oracle.n:
            raise SnapshotMismatchError(
                f"universe of {self.oracle.n}", f"universe of {store.n}"
            )
        expected = (
            expected_fingerprint if expected_fingerprint is not None else self.fingerprint
        )
        theirs = store.metadata.get("fingerprint") if store.metadata else None
        if expected is not None and theirs is not None and theirs != expected:
            raise SnapshotMismatchError(expected, str(theirs))
        rows = store.edge_rows(start, store.num_edges if stop is None else stop)
        with self._rw.write_locked():
            return self._merge_paid_edges(rows)

    def _merge_paid_edges(self, edges: Sequence[Tuple[int, int, float]]) -> int:
        """Commit distances another run already paid for; returns edges added.

        The one free-edge path (snapshot restore, store adoption, the
        per-job merge of peer shards' rows).  Every edge is checked against
        the live graph first: a weight conflict means another dataset, so
        it raises :class:`~repro.core.exceptions.SnapshotMismatchError`
        before anything changes.  Then each edge seeds the oracle cache,
        and each novel one is added to the graph and announced to the bound
        provider.  The caller holds the exclusive lock.
        """
        for i, j, w in edges:
            existing = self.graph.get(i, j)
            if existing is not None and existing != w:
                raise SnapshotMismatchError(
                    f"edge ({i},{j})={existing}", f"edge ({i},{j})={w}"
                )
        added = 0
        with self._oracle_lock:
            for i, j, w in edges:
                self.oracle.seed(i, j, w)
                if self.graph.add_edge(i, j, w):
                    self.bounder.notify_resolved(i, j, w)
                    added += 1
        self._m_restored.inc(added)
        return added

    def _on_edge(self, i: int, j: int, distance: float) -> None:
        # Runs under the exclusive lock (inside add_edge); keep it O(1).
        self._edges_since_snapshot += 1

    def _maybe_snapshot(self) -> None:
        if self.snapshot_path is None or self.snapshot_every is None:
            return
        if self._edges_since_snapshot >= self.snapshot_every:
            self.snapshot()

    # -- observability -------------------------------------------------------

    def snapshot_stats(self) -> EngineStats:
        """An engine-wide stats snapshot, read straight off the registry.

        ``EngineStats`` is a *view*: every number here is either a registry
        sample (job counts, warm hits, resolver counters) or read from its
        single authoritative owner (oracle, queue, graph) — the same
        sources ``render_prometheus`` exposes, so ``/metrics`` and the
        ``stats`` op can never disagree.
        """
        with self._stats_lock:
            latencies = list(self._latencies)
        resolver = resolver_stats_view(self.registry)
        resolver.dijkstra_runs = int(getattr(self.bounder, "dijkstra_runs", 0))
        weak_calls = int(getattr(self._weak_bounder, "weak_calls", 0))
        weak_band = int(getattr(self._weak_bounder, "weak_band", 0))
        resolver.weak_calls = weak_calls
        resolver.weak_band = weak_band
        queries = resolver.bound_queries

        def status_count(status: JobStatus) -> int:
            return int(self._m_job_status[status].value)

        return EngineStats(
            uptime_seconds=time.monotonic() - self._started_at,
            job_workers=len(self._workers),
            queue_depth=len(self._queue),
            jobs_submitted=int(self._m_submitted.value),
            jobs_completed=status_count(JobStatus.COMPLETED),
            jobs_partial=status_count(JobStatus.PARTIAL),
            jobs_failed=status_count(JobStatus.FAILED),
            jobs_cancelled=status_count(JobStatus.CANCELLED),
            jobs_expired=status_count(JobStatus.EXPIRED),
            oracle_calls=self.oracle.calls,
            bootstrap_calls=self.bootstrap_calls,
            warm_resolutions=int(self._m_warm.value),
            restored_edges=int(self._m_restored.value),
            snapshots_written=int(self._m_snapshots.value),
            graph_edges=self.graph.num_edges,
            graph_epoch=self.graph.epoch,
            bound_queries=queries,
            bound_cache_hits=resolver.bound_cache_hits,
            bound_memo_hit_rate=(
                resolver.bound_cache_hits / queries if queries else 0.0
            ),
            latency_p50_s=percentile(latencies, 50) if latencies else 0.0,
            latency_p95_s=percentile(latencies, 95) if latencies else 0.0,
            resolver=resolver,
            weak_calls=weak_calls,
            weak_band=weak_band,
            mutations_applied=int(
                self._m_mutations["insert"].value
                + self._m_mutations["remove"].value
            ),
            subscriptions_active=self.subscriptions.active,
        )

    def render_metrics(self) -> str:
        """The registry in Prometheus text format (the ``/metrics`` body)."""
        return self.registry.render_prometheus()

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one protocol request through the shared op table."""
        return dispatch(self, request)

    # -- lifecycle -----------------------------------------------------------

    def close(self, snapshot: bool = True) -> None:
        """Drain the queue, stop workers, snapshot (if configured), shut down.

        Idempotent.  Queued jobs that never ran finish ``cancelled``.
        """
        if self._closed:
            return
        self._closed = True
        for job in self._queue.close():
            self._finish(job, JobResult(status=JobStatus.CANCELLED))
        for worker in self._workers:
            worker.join()
        if snapshot and self.snapshot_path is not None:
            self.snapshot()
        if self.executor is not None:
            self.executor.close()

    def __enter__(self) -> "ProximityEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def space_fingerprint(space: MetricSpace, probes: int = 4) -> str:
    """A cheap dataset-identity string: type, size, and a few probed distances.

    The probes catch the dangerous mismatch — same type and size but
    different data — without meaningfully spending oracle budget (they go
    through the raw space, and an engine built via :meth:`for_space` would
    pay those same pairs again only if a query needs them).
    """
    n = space.n
    parts = [type(space).__name__, str(n)]
    if n > 1:
        step = max(1, n // (probes + 1))
        for t in range(probes):
            i = (t * step) % n
            j = (i + 1 + t) % n
            if i != j:
                parts.append(f"{space.distance(i, j):.9g}")
    return ":".join(parts)
