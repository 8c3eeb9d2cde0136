"""Sharded multi-process serving: N engine processes behind one coordinator.

One :class:`~repro.service.engine.ProximityEngine` is a single GIL-bound
process.  This module runs **N** of them — each its own process, each over
the *same* universe — partitioned by landmark region (objects assigned to
their nearest of N landmarks, the natural sharding key since bound state
decomposes along it), and scatter-gathers point queries across them:

* ``knn`` / ``range`` / ``nearest`` jobs are split into per-shard candidate
  substreams (the shard's region ∩ the requested candidates) and merged
  exactly — the query functions' ``(distance, id)`` tie-break rules make
  partition-merge equivalent to a single scan over the full pool.
* Global jobs (``medoid``, ``knng``, ``mst``) cannot be partitioned without
  changing their call sequence, so each is routed whole to one owner shard,
  round-robin.

Shared warm state travels through a
:class:`~repro.core.csr_store.CSRStore`: the coordinator owns the writable
store (optionally loaded from a v2 snapshot archive) and every shard
process attaches it read-only at start — zero-copy — and adopts its edges
for free.  Every ``submit`` message carries the store's published edge
count, and before the job the shard merges the rows its peers published
since its last job, so each shard's bounds see the whole graph paid for so
far and no shard pays again for a pair a peer already bought.  The submit
reply carries the edges the job charged (never the merged rows), and the
coordinator appends the novel ones to the store: the store holds the
union of everything any shard has paid for.

Exactness contract: answers are identical to a single-process engine's.
Each shard's *charged* edge sequence equals that of a single-process
engine fed the same candidate substream and seeded with the same store
prefix before each job — shards run one job worker and merge exactly the
prefix named in the message, never rows that arrive mid-job.  Merged rows
are exact distances the same oracle returned; weak-tier and stretch
estimates are never committed, so they never reach the store.

Observability: :meth:`ShardedEngine.render_metrics` renders every shard's
registry in the shard process, stamps ``{shard="k"}`` onto the samples
(:func:`repro.obs.relabel_metrics`), and merges the pages with the
coordinator's own router metrics — one scrape shows the whole topology.
The ``stats`` op labels each per-shard row with the same ``shard`` index,
so the JSON surface and the merged registry agree on who is who.

Dynamic mode (``dynamic=True``): every shard wraps the universe in a
:class:`~repro.dynamic.objects.DynamicObjectSet`, and mutation batches are
**broadcast** to all shards — slot recycling is deterministic, so the N
engines assign identical ids and stay aligned.  The coordinator keeps a
mutable copy of the plan's regions for scatter routing (removed ids leave
their region, inserted ids join their slot's region, brand-new slots go
round-robin), and the append-only shared CSR store is declared *stale*
from the first batch on: shards merge nothing more, draining stops and
snapshots skip the store archive, because an append-only store cannot
tombstone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.csr_store import DEFAULT_SEGMENT_CAPACITY, CSRStore
from repro.core.exceptions import ConfigurationError
from repro.dynamic import Mutation, MutationResult, Subscription, SubscriptionDelta
from repro.obs import MetricsRegistry, merge_metrics, relabel_metrics
from repro.service.jobs import JobResult, JobSpec, JobStatus
from repro.service.server import dispatch
from repro.spaces.handles import SpaceHandle

Pair = Tuple[int, int]

#: Job kinds split across shards by candidate region.
SCATTER_KINDS = frozenset({"knn", "range", "nearest"})

#: Job kinds routed whole to a single owner shard.
GLOBAL_KINDS = frozenset({"medoid", "knng", "mst", "build_index", "search_index"})

#: Index job kinds with *sticky* owner routing: a ``build_index`` job pins
#: its index name to the shard that built it, and ``search_index`` jobs for
#: that name always land on the owning shard (the graph lives only there).
INDEX_KINDS = frozenset({"build_index", "search_index"})


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of the universe into shard regions.

    ``regions[k]`` is the ascending id list owned by shard ``k``; every id
    appears in exactly one region.  The :attr:`digest` pins the assignment,
    and is embedded in per-shard snapshot fingerprints so a restore under a
    *different* plan is refused per shard.
    """

    n: int
    regions: Tuple[Tuple[int, ...], ...]
    landmarks: Tuple[int, ...] = ()

    @property
    def num_shards(self) -> int:
        """Number of regions."""
        return len(self.regions)

    @property
    def digest(self) -> str:
        """Short stable hash of the full object→shard assignment."""
        owner = [0] * self.n
        for k, region in enumerate(self.regions):
            for obj in region:
                owner[obj] = k
        blob = ",".join(map(str, owner)).encode("ascii")
        return hashlib.sha256(blob).hexdigest()[:12]

    def shard_fingerprint(self, base: Optional[str], shard: int) -> str:
        """The per-shard dataset fingerprint stored in shard snapshots."""
        return f"{base}|plan={self.digest}|shard={shard}/{self.num_shards}"

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary for stats surfaces."""
        return {
            "n": self.n,
            "num_shards": self.num_shards,
            "digest": self.digest,
            "landmarks": list(self.landmarks),
            "region_sizes": [len(region) for region in self.regions],
        }


def plan_shards(
    n: int,
    num_shards: int,
    space: Any = None,
    num_landmarks: Optional[int] = None,
) -> ShardPlan:
    """Partition ``n`` objects into ``num_shards`` regions.

    With a ``space``, regions are *landmark regions*: ``num_shards``
    evenly-spread landmark objects are fixed deterministically and every
    object joins the region of its nearest landmark (ties to the lower
    landmark index) **with remaining capacity** — regions are capped at
    ``ceil(n / num_shards)`` objects, because a scatter query's latency is
    bounded by its largest region: locality without balance trades away
    exactly the parallelism sharding exists to buy.  The assignment
    distances go through the raw space — like
    :func:`~repro.service.engine.space_fingerprint`, they are paid locally,
    never charged to an oracle.  Without a space the fallback is contiguous
    blocks, which is still a valid (if geometry-blind) plan.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if num_shards > n:
        raise ValueError(f"cannot split {n} objects into {num_shards} shards")
    if num_shards == 1:
        return ShardPlan(n=n, regions=(tuple(range(n)),))
    landmarks = tuple((k * n) // num_shards for k in range(num_shards))
    if space is None:
        bounds = [(k * n) // num_shards for k in range(num_shards + 1)]
        regions = tuple(
            tuple(range(bounds[k], bounds[k + 1])) for k in range(num_shards)
        )
        return ShardPlan(n=n, regions=regions)
    capacity = -(-n // num_shards)  # ceil: total capacity always covers n
    regions_mut: List[List[int]] = [[] for _ in range(num_shards)]
    for obj in range(n):
        ranked = sorted(
            range(num_shards), key=lambda k: (space.distance(obj, landmarks[k]), k)
        )
        best = next(k for k in ranked if len(regions_mut[k]) < capacity)
        regions_mut[best].append(obj)
    # Capacity bounds make empty regions nearly impossible (a region only
    # ends empty if every object fit elsewhere first, which needs
    # coinciding landmarks at tiny n); rebalance that corner by block
    # fallback rather than serve a shard with nothing to own.
    if any(not region for region in regions_mut):
        return plan_shards(n, num_shards, space=None)
    regions = tuple(tuple(region) for region in regions_mut)
    return ShardPlan(n=n, regions=regions, landmarks=landmarks)


@dataclass(frozen=True)
class ShardConfig:
    """Everything a spawn-started shard process needs (all picklable)."""

    shard: int
    num_shards: int
    handle: SpaceHandle
    provider: str
    num_landmarks: Optional[int]
    executor: Optional[str]
    oracle_workers: int
    store_name: Optional[str]
    base_fingerprint: Optional[str]
    shard_fingerprint: str
    weak_oracle: bool = False
    #: Wrap the rebuilt space in a DynamicObjectSet so mutation batches work.
    dynamic: bool = False


def _shard_main(conn, config: ShardConfig) -> None:
    """Shard process body: build the engine, answer pipe ops until close.

    ``submit`` (with its store merge and charged edge rows), ``edges``,
    ``restore`` and ``close`` are shard-private; every other message is a
    protocol request answered by the shared op table.  Module-level so it
    pickles by reference under the spawn start method.  The engine runs
    exactly one job worker — the shard's resolved-edge sequence must
    replay the substream deterministically.
    """
    from repro.service.engine import ProximityEngine

    engine = None
    store: Optional[CSRStore] = None
    try:
        space = config.handle.space()
        if config.dynamic:
            from repro.dynamic import DynamicObjectSet

            space = DynamicObjectSet.wrap(space)
        engine = ProximityEngine.for_space(
            space,
            provider=config.provider,
            num_landmarks=config.num_landmarks,
            job_workers=1,
            executor=config.executor,
            oracle_workers=config.oracle_workers,
            fingerprint=config.shard_fingerprint,
            weak_oracle=config.weak_oracle or None,
        )
        #: Store rows merged so far; ``None`` without a store and once a
        #: mutation batch ran here (the append-only store may then name
        #: dead or recycled ids).
        merged: Optional[int] = None
        if config.store_name:
            store = CSRStore.attach(config.store_name)
            engine.adopt_store(store, expected_fingerprint=config.base_fingerprint)
            merged = store.num_edges
        conn.send({"ok": True, "ready": True, "adopted": engine.graph.num_edges})
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            op = msg.get("op")
            try:
                if op == "submit":
                    published = msg.get("store_edges")
                    if merged is not None and published is not None and published > merged:
                        store.refresh()
                        engine.adopt_store(store, start=merged, stop=published)
                        merged = published
                    start = engine.graph.num_edges
                    result = engine.run(msg["spec"], timeout=msg.get("timeout"))
                    rows, total = _edge_rows(engine, start)
                    conn.send(
                        {"ok": True, "result": result, "edges": rows, "total": total}
                    )
                elif op == "edges":
                    rows, total = _edge_rows(engine, int(msg.get("start", 0)))
                    conn.send({"ok": True, "edges": rows, "total": total})
                elif op == "restore":
                    conn.send({"ok": True, "added": engine.restore(msg["path"])})
                elif op == "close":
                    conn.send({"ok": True, "op": "close"})
                    return
                else:
                    if op == "mutate":
                        merged = None
                    conn.send(dispatch(engine, msg))
            except Exception as exc:  # noqa: BLE001 - shard must answer, not die
                conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    except Exception as exc:  # noqa: BLE001 - startup failure: tell the parent
        try:
            conn.send({"ok": False, "ready": False, "error": f"{type(exc).__name__}: {exc}"})
        except (BrokenPipeError, OSError):
            pass
    finally:
        if engine is not None:
            engine.close(snapshot=False)
        if store is not None:
            store.close()
        conn.close()


def _edge_rows(engine, start: int) -> Tuple[List[Tuple[int, int, float]], int]:
    """The engine graph's edges from index ``start`` on, plus its edge count."""
    with engine._rw.read_locked():
        i, j, w = engine.graph.edge_arrays()
        rows = list(zip(i[start:].tolist(), j[start:].tolist(), w[start:].tolist()))
        return rows, len(i)


@dataclass
class _Shard:
    """Parent-side handle on one shard process."""

    index: int
    process: multiprocessing.process.BaseProcess
    conn: Any
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Graph-edge index up to which the coordinator has drained this shard.
    cursor: int = 0


class ShardedEngine:
    """Coordinator over N shard processes sharing one CSR bound store.

    Exposes the backend methods the op table
    (:func:`~repro.service.server.dispatch`) calls on a single
    :class:`~repro.service.engine.ProximityEngine`, with the same
    signatures — ``run``, ``snapshot_stats``, ``render_metrics``,
    ``snapshot``, ``indexes``, ``apply_mutations``, the subscription
    methods — so the server and the CLI treat either interchangeably.

    Parameters mirror ``ProximityEngine.for_space`` where they apply; the
    space arrives as a picklable :class:`~repro.spaces.handles.SpaceHandle`
    because every shard process must rebuild it identically.
    """

    def __init__(
        self,
        handle: SpaceHandle,
        num_shards: int = 2,
        provider: str = "tri",
        *,
        executor: Optional[str] = None,
        oracle_workers: int = 4,
        num_landmarks: Optional[int] = None,
        warm_from: Optional[str] = None,
        fingerprint: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        segment_capacity: int = DEFAULT_SEGMENT_CAPACITY,
        start_timeout: float = 120.0,
        dynamic: bool = False,
    ) -> None:
        from repro.service.engine import space_fingerprint

        if num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        space = handle.space()
        self.handle = handle
        self.n = space.n
        self.fingerprint = fingerprint or space_fingerprint(space)
        self.plan = plan_shards(self.n, num_shards, space=space)
        if warm_from is not None:
            self.store = CSRStore.from_archive(
                warm_from,
                segment_capacity=segment_capacity,
                expected_fingerprint=self.fingerprint,
            )
        else:
            self.store = CSRStore.create(self.n, segment_capacity=segment_capacity)
            self.store.metadata = {"fingerprint": self.fingerprint}
        #: Canonical pairs already in the store (dedup for edge draining).
        self._known: Dict[Pair, float] = {
            (i, j): w for i, j, w in self.store.iter_edges()
        }
        self._store_lock = threading.Lock()
        self._owner_seq = 0
        self._owner_lock = threading.Lock()
        #: Index name -> shard index that built (and exclusively serves) it.
        self.indexes: Dict[str, int] = {}
        self._closed = False
        self._started_at = time.monotonic()
        self.dynamic = bool(dynamic)
        #: Mutable copy of the plan's regions (scatter routing); mutations
        #: move ids in and out while the frozen plan keeps its digest.
        self._regions: List[List[int]] = [list(r) for r in self.plan.regions]
        self._regions_lock = threading.Lock()
        #: Slot → owning shard, so a recycled slot rejoins its old region
        #: and brand-new slots land round-robin.
        self._slot_owner: Dict[int, int] = {
            obj: k for k, region in enumerate(self.plan.regions) for obj in region
        }
        #: True once a mutation batch has run: the append-only store can no
        #: longer mirror the shards, so draining and store snapshots stop.
        self._store_stale = False
        #: Coordinator subscription id → (shard index, shard-local sub id).
        self._sub_route: Dict[int, Tuple[int, int]] = {}
        #: Coordinator subscription id → the owner shard's subscription as
        #: of its last answer (sub id rewritten to the coordinator's).
        self.subscriptions: Dict[int, Subscription] = {}
        self._sub_seq = 0
        self._sub_lock = threading.Lock()
        #: Final aggregate stats, captured by :meth:`close` for post-mortems.
        self.last_stats: Optional[Dict[str, Any]] = None

        self.registry = registry if registry is not None else MetricsRegistry()
        self._register_metrics()

        ctx = multiprocessing.get_context("spawn")
        self._shards: List[_Shard] = []
        adopted = self.store.num_edges
        for k in range(self.plan.num_shards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            config = ShardConfig(
                shard=k,
                num_shards=self.plan.num_shards,
                handle=handle,
                provider=provider,
                num_landmarks=num_landmarks,
                executor=executor,
                oracle_workers=oracle_workers,
                store_name=self.store.name,
                base_fingerprint=self.fingerprint,
                shard_fingerprint=self.plan.shard_fingerprint(self.fingerprint, k),
                dynamic=self.dynamic,
            )
            process = ctx.Process(
                target=_shard_main,
                args=(child_conn, config),
                name=f"repro-shard-{k}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._shards.append(
                _Shard(index=k, process=process, conn=parent_conn, cursor=adopted)
            )
        for shard in self._shards:
            if not shard.conn.poll(start_timeout):
                self.close()
                raise ConfigurationError(
                    f"shard {shard.index} did not come up within {start_timeout}s"
                )
            try:
                hello = shard.conn.recv()
            except (EOFError, OSError):
                hello = {"ok": False, "error": "shard process exited during startup"}
            if not hello.get("ok"):
                error = hello.get("error", "unknown startup failure")
                self.close()
                raise ConfigurationError(f"shard {shard.index} failed to start: {error}")
        self._pool = ThreadPoolExecutor(
            max_workers=self.plan.num_shards, thread_name_prefix="repro-router"
        )

    # -- metrics -------------------------------------------------------------

    def _register_metrics(self) -> None:
        r = self.registry
        self._m_jobs = r.counter(
            "repro_router_jobs_total",
            "Jobs routed by the shard coordinator, by dispatch mode.",
            labelnames=("mode",),
        )
        self._m_shard_jobs = r.counter(
            "repro_router_shard_dispatches_total",
            "Per-shard job dispatches from the coordinator.",
            labelnames=("shard",),
        )
        self._m_drained = r.counter(
            "repro_router_edges_drained_total",
            "Novel shard edges appended to the shared CSR store.",
        )
        self._m_mutation_batches = r.counter(
            "repro_router_mutation_batches_total",
            "Mutation batches broadcast to every shard.",
        )
        r.gauge(
            "repro_router_shards", "Live shard processes.",
            fn=lambda: sum(1 for s in self._shards if s.process.is_alive()),
        )
        r.gauge(
            "repro_store_edges", "Edges in the shared CSR bound store.",
            fn=lambda: self.store.num_edges,
        )
        r.gauge(
            "repro_store_segments", "Shared-memory segments backing the store.",
            fn=lambda: self.store.num_segments,
        )

    # -- shard RPC -----------------------------------------------------------

    def _call(self, shard: _Shard, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round-trip on a shard's pipe (serialised)."""
        with shard.lock:
            if not shard.process.is_alive():
                raise ConnectionError(f"shard {shard.index} process is dead")
            shard.conn.send(message)
            reply = shard.conn.recv()
        if not reply.get("ok", False):
            raise RuntimeError(
                f"shard {shard.index}: {reply.get('error', 'unknown error')}"
            )
        return reply

    def _broadcast(self, message: Dict[str, Any]) -> List[Dict[str, Any]]:
        futures = [
            self._pool.submit(self._call, shard, dict(message))
            for shard in self._shards
        ]
        return [future.result() for future in futures]

    # -- submission ----------------------------------------------------------

    def run(self, spec: JobSpec, timeout: Optional[float] = None) -> JobResult:
        """Route one job and return its (merged) result synchronously."""
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        if spec.kind in SCATTER_KINDS:
            result = self._run_scatter(spec, timeout)
        elif spec.kind in INDEX_KINDS:
            result = self._run_global(spec, timeout, shard=self._index_shard(spec))
        else:
            result = self._run_global(spec, timeout)
        return result

    def _next_owner(self) -> _Shard:
        with self._owner_lock:
            shard = self._shards[self._owner_seq % len(self._shards)]
            self._owner_seq += 1
        return shard

    def _index_shard(self, spec: JobSpec) -> "_Shard":
        """Sticky owner routing for built indexes.

        ``build_index`` claims the next round-robin owner and records it
        under the index name; ``search_index`` must hit the shard holding
        the named graph.
        """
        name = str(spec.params.get("name", spec.params.get("graph", "")))
        if spec.kind == "build_index":
            shard = self._next_owner()
            with self._owner_lock:
                self.indexes[name] = shard.index
            return shard
        with self._owner_lock:
            if name:
                owner = self.indexes.get(name)
            elif len(self.indexes) == 1:
                name, owner = next(iter(self.indexes.items()))
            else:
                owner = None
        if owner is None:
            raise ValueError(
                f"no shard owns a built index named {name!r}: "
                "run a build_index job first"
            )
        return self._shards[owner]

    def _run_global(
        self, spec: JobSpec, timeout: Optional[float], shard: Optional["_Shard"] = None
    ) -> JobResult:
        if shard is None:
            shard = self._next_owner()
        self._m_jobs.labels(mode="global").inc()
        self._m_shard_jobs.labels(shard=str(shard.index)).inc()
        return self._submit(shard, spec, timeout, self._store_prefix())

    def _store_prefix(self) -> Optional[int]:
        """The store's edge count to stamp on a submit; nothing once stale."""
        return None if self._store_stale else self.store.num_edges

    def _submit(
        self,
        shard: _Shard,
        spec: JobSpec,
        timeout: Optional[float],
        store_edges: Optional[int],
    ) -> JobResult:
        """Run one job on a shard and store the edges it charged.

        ``store_edges`` is the store prefix the shard merges before the
        job.  A stamp at or below the shard's merged prefix is ignored, so
        the prefix a shard has merged only grows.
        """
        message = {"op": "submit", "spec": spec, "timeout": timeout}
        if store_edges is not None:
            message["store_edges"] = store_edges
        reply = self._call(shard, message)
        self._store_rows(shard, reply)
        return reply["result"]

    def _scatter_parts(self, spec: JobSpec) -> List[Tuple[_Shard, JobSpec]]:
        explicit = spec.params.get("candidates")
        allowed = None if explicit is None else set(int(c) for c in explicit)
        query = spec.params.get("query")
        parts: List[Tuple[_Shard, JobSpec]] = []
        with self._regions_lock:
            regions = [list(region) for region in self._regions]
        for shard, region in zip(self._shards, regions):
            if allowed is None:
                cands: Sequence[int] = region
            else:
                cands = [c for c in region if c in allowed]
            pool = [c for c in cands if c != query]
            keeps_query = (
                spec.kind == "range"
                and bool(spec.params.get("include_query"))
                and query in cands
            )
            if not pool and not keeps_query:
                continue
            params = dict(spec.params)
            params["candidates"] = list(cands)
            parts.append((shard, JobSpec(
                kind=spec.kind,
                params=params,
                priority=spec.priority,
                oracle_budget=spec.oracle_budget,
                deadline=spec.deadline,
                label=spec.label,
                stretch=spec.stretch,
            )))
        return parts

    def _run_scatter(self, spec: JobSpec, timeout: Optional[float]) -> JobResult:
        parts = self._scatter_parts(spec)
        if not parts:
            raise ValueError("no candidates for query after partitioning")
        self._m_jobs.labels(mode="scatter").inc()
        started = time.perf_counter()
        # One stamp for every part, read before any part is submitted: a
        # part that finishes first appends its rows to the store, and a
        # peer stamped after that would merge them before its own job.
        store_edges = self._store_prefix()
        futures = []
        for shard, shard_spec in parts:
            self._m_shard_jobs.labels(shard=str(shard.index)).inc()
            futures.append(
                self._pool.submit(self._submit, shard, shard_spec, timeout, store_edges)
            )
        results: List[JobResult] = [future.result() for future in futures]
        return self._merge_results(spec, results, time.perf_counter() - started)

    def _merge_results(
        self, spec: JobSpec, results: List[JobResult], latency: float
    ) -> JobResult:
        status = JobStatus.COMPLETED
        for candidate in (
            JobStatus.FAILED,
            JobStatus.CANCELLED,
            JobStatus.EXPIRED,
            JobStatus.PARTIAL,
        ):
            if any(r.status is candidate for r in results):
                status = candidate
                break
        value: Any = None
        if status in (JobStatus.COMPLETED, JobStatus.PARTIAL):
            values = [r.value for r in results if r.value is not None]
            if spec.kind == "knn":
                merged = sorted(itertools.chain.from_iterable(values))
                value = merged[: int(spec.params["k"])]
            elif spec.kind == "range":
                value = sorted(set(itertools.chain.from_iterable(values)))
            elif spec.kind == "nearest":
                # Shard answers are (object, distance); the single-engine
                # scan breaks distance ties by the earlier (lower) id.
                best = min(values, key=lambda pair: (pair[1], pair[0]))
                value = tuple(best)
        errors = [r.error for r in results if r.error]
        return JobResult(
            status=status,
            value=value,
            unresolved=tuple(
                itertools.chain.from_iterable(r.unresolved for r in results)
            ),
            charged_calls=sum(r.charged_calls for r in results),
            warm_resolutions=sum(r.warm_resolutions for r in results),
            latency_seconds=latency,
            resolver_stats=None,
            error="; ".join(errors) if errors else None,
        )

    # -- shared-store maintenance --------------------------------------------

    def _drain_edges(self, shards: List[_Shard]) -> None:
        """Pull each shard's edges past its cursor into the store."""
        if self._store_stale:
            return
        for shard in shards:
            self._store_rows(
                shard, self._call(shard, {"op": "edges", "start": shard.cursor})
            )

    def _store_rows(self, shard: _Shard, reply: Dict[str, Any]) -> None:
        """Append a shard reply's ``edges`` to the store (deduped).

        The rows start past the shard's merged store prefix, so they carry
        only edges the shard charged (or restored); the shard's cursor
        moves to the reply's ``total``.  Nothing is appended once a
        mutation batch has run: an append-only store cannot tombstone, so
        post-mutation edges stay in the shards' own graphs.
        """
        appended = 0
        with self._store_lock:
            shard.cursor = max(shard.cursor, int(reply["total"]))
            if self._store_stale:
                return
            for i, j, w in reply["edges"]:
                pair = (int(i), int(j))
                if pair in self._known:
                    continue
                self._known[pair] = float(w)
                self.store.append(pair[0], pair[1], float(w))
                appended += 1
        if appended:
            self._m_drained.inc(appended)

    # -- mutation & standing queries -----------------------------------------

    def apply_mutations(self, mutations: List[Mutation]) -> MutationResult:
        """Broadcast one mutation batch to every shard.

        All shards hold the full universe and recycle slots
        deterministically, so each applies the identical batch and assigns
        identical ids; the first reply's accounting speaks for all.  The
        coordinator then updates its routing regions and marks the shared
        store stale.
        """
        if not self.dynamic:
            raise ConfigurationError(
                "this sharded engine is static; start it with dynamic=True "
                "to accept mutation batches"
            )
        # Stale before the broadcast: no submit sent from here on publishes
        # a prefix, and no reply charged after the batch reaches the store.
        self._store_stale = True
        replies = self._broadcast(
            {"op": "mutate", "mutations": [dataclasses.asdict(m) for m in mutations]}
        )
        result = MutationResult(**replies[0]["result"])
        with self._regions_lock:
            for obj in result.removed_ids:
                owner = self._slot_owner.get(obj)
                if owner is not None and obj in self._regions[owner]:
                    self._regions[owner].remove(obj)
            for obj in result.inserted_ids:
                owner = self._slot_owner.setdefault(
                    obj, obj % self.plan.num_shards
                )
                if obj not in self._regions[owner]:
                    self._regions[owner].append(obj)
                    self._regions[owner].sort()
        self._m_mutation_batches.inc()
        return result

    def subscribe_knn(self, query: int, k: int) -> Subscription:
        """Register a standing kNN query on one owner shard (round-robin)."""
        return self._subscribe("knn", {"query": int(query), "k": int(k)})

    def subscribe_knng(self, k: int) -> Subscription:
        """Register a standing kNN-graph on one owner shard (round-robin)."""
        return self._subscribe("knng", {"k": int(k)})

    def _subscribe(self, kind: str, params: Dict[str, Any]) -> Subscription:
        """Register a standing query on the next owner shard.

        Mutations broadcast to every shard, so the owner refreshes its copy
        after each batch like any single-process engine would.  The
        returned ``sub_id`` is coordinator-scoped; ``subscription_deltas``
        and ``unsubscribe`` route through it.
        """
        shard = self._next_owner()
        reply = self._call(shard, {"op": "subscribe", "kind": kind, **params})
        with self._sub_lock:
            self._sub_seq += 1
            sub = _mirror_subscription(self._sub_seq, params, reply)
            self._sub_route[sub.sub_id] = (shard.index, int(reply["sub_id"]))
            self.subscriptions[sub.sub_id] = sub
        return sub

    def _route_sub(self, sub_id: int) -> Tuple[_Shard, int]:
        with self._sub_lock:
            shard_index, shard_sub = self._sub_route[int(sub_id)]
        return self._shards[shard_index], shard_sub

    def subscription_deltas(
        self, sub_id: int, since: int = 0
    ) -> List[SubscriptionDelta]:
        """Poll a subscription's deltas from its owner shard.

        Also refreshes :attr:`subscriptions` with the owner's current
        registered result.
        """
        shard, shard_sub = self._route_sub(sub_id)
        reply = self._call(
            shard, {"op": "deltas", "sub_id": shard_sub, "since": int(since)}
        )
        with self._sub_lock:
            old = self.subscriptions[int(sub_id)]
            self.subscriptions[int(sub_id)] = _mirror_subscription(
                old.sub_id, old.params, dict(reply, kind=old.kind)
            )
        return [SubscriptionDelta(**delta) for delta in reply["deltas"]]

    def unsubscribe(self, sub_id: int) -> None:
        """Drop a standing query on its owner shard."""
        shard, shard_sub = self._route_sub(sub_id)
        self._call(shard, {"op": "unsubscribe", "sub_id": shard_sub})
        with self._sub_lock:
            del self._sub_route[int(sub_id)]
            del self.subscriptions[int(sub_id)]

    # -- observability -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Coordinator + per-shard stats (the ``stats`` op's payload).

        Every per-shard row carries a ``shard`` index matching the
        ``{shard="k"}`` label the merged metrics registry stamps on the
        same engine's samples, so the two surfaces agree on who is who.
        """
        shard_stats = []
        for shard, reply in zip(self._shards, self._broadcast({"op": "stats"})):
            row = dict(reply["stats"])
            row["shard"] = shard.index
            shard_stats.append(row)
        aggregate = {
            "jobs_submitted": sum(s["jobs_submitted"] for s in shard_stats),
            "jobs_completed": sum(s["jobs_completed"] for s in shard_stats),
            "oracle_calls": sum(s["oracle_calls"] for s in shard_stats),
            "warm_resolutions": sum(s["warm_resolutions"] for s in shard_stats),
            "graph_edges": sum(s["graph_edges"] for s in shard_stats),
            "mutations_applied": sum(
                s.get("mutations_applied", 0) for s in shard_stats
            ),
        }
        return {
            "sharded": True,
            "dynamic": self.dynamic,
            "store_stale": self._store_stale,
            "uptime_seconds": time.monotonic() - self._started_at,
            "plan": self.plan.describe(),
            "store": self.store.describe(),
            "aggregate": aggregate,
            "shards": shard_stats,
        }

    def snapshot_stats(self) -> "ShardedStats":
        """Protocol-compatible wrapper (servers call ``.to_dict()`` on it)."""
        return ShardedStats(self.stats())

    def render_metrics(self) -> str:
        """All shard registries (labeled ``{shard="k"}``) plus the router's."""
        pages = []
        for shard, reply in zip(self._shards, self._broadcast({"op": "metrics"})):
            pages.append(
                relabel_metrics(reply["metrics"], {"shard": str(shard.index)})
            )
        pages.append(self.registry.render_prometheus())
        return merge_metrics(pages)

    # -- persistence ---------------------------------------------------------

    def shard_snapshot_paths(self, base: str) -> List[str]:
        """The per-shard archive paths :meth:`snapshot` writes for ``base``."""
        return [
            f"{base}.shard{k}-of-{self.plan.num_shards}.npz"
            for k in range(self.plan.num_shards)
        ]

    def snapshot(self, base: Optional[str] = None) -> Dict[str, Any]:
        """Write the store archive plus one fingerprinted archive per shard.

        ``{base}.store.npz`` holds the union store (base fingerprint);
        ``{base}.shard{k}-of-{N}.npz`` holds shard ``k``'s graph under its
        per-shard fingerprint, so :meth:`restore` verifies each archive
        belongs to this dataset *and* this plan position.
        """
        if base is None:
            raise ConfigurationError("sharded snapshot needs a base path")
        store_path: Optional[str] = None
        if not self._store_stale:
            # Post-mutation the append-only store no longer mirrors the
            # shards; the per-shard v3 archives are the whole truth.
            store_path = f"{base}.store.npz"
            with self._store_lock:
                self.store.save(
                    store_path,
                    metadata={
                        "fingerprint": self.fingerprint,
                        "plan": self.plan.digest,
                    },
                )
        paths = self.shard_snapshot_paths(base)
        replies = [
            self._pool.submit(
                self._call, shard, {"op": "snapshot", "path": path}
            )
            for shard, path in zip(self._shards, paths)
        ]
        shard_paths = [future.result()["path"] for future in replies]
        return {"store": store_path, "shards": shard_paths}

    def restore(self, base: str) -> int:
        """Restore every shard from a :meth:`snapshot` base; returns edges added.

        Each shard verifies its own archive's per-shard fingerprint
        (dataset, plan digest, and shard position must all match) before
        merging; drained novel edges land back in the shared store.
        """
        futures = [
            self._pool.submit(self._call, shard, {"op": "restore", "path": path})
            for shard, path in zip(self._shards, self.shard_snapshot_paths(base))
        ]
        added = sum(int(future.result()["added"]) for future in futures)
        self._drain_edges(self._shards)
        # Rebuild sticky index ownership from what each shard rehydrated.
        for shard in self._shards:
            for name in self._call(shard, {"op": "indexes"})["indexes"]:
                with self._owner_lock:
                    self.indexes[str(name)] = shard.index
        return added

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one protocol request through the shared op table."""
        return dispatch(self, request)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop every shard process and destroy the shared store."""
        if self._closed:
            return
        if hasattr(self, "_pool"):  # fully started — safe to query shards
            try:
                self.last_stats = self.stats()["aggregate"]
            except Exception:  # noqa: BLE001 - shards may already be gone
                pass
        self._closed = True
        for shard in self._shards:
            try:
                with shard.lock:
                    shard.conn.send({"op": "close"})
                    if shard.conn.poll(10.0):
                        shard.conn.recv()
            except (BrokenPipeError, OSError):
                pass
        for shard in self._shards:
            shard.process.join(timeout=10.0)
            if shard.process.is_alive():  # pragma: no cover - stuck shard
                shard.process.terminate()
                shard.process.join(timeout=5.0)
            shard.conn.close()
        if hasattr(self, "_pool"):
            self._pool.shutdown(wait=False, cancel_futures=True)
        self.store.unlink()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ShardedStats:
    """Tiny adapter so sharded stats quack like ``EngineStats``."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self._payload = payload

    def to_dict(self) -> Dict[str, Any]:
        """The stats payload (already JSON-friendly)."""
        return self._payload


def _mirror_subscription(
    sub_id: int, params: Dict[str, Any], reply: Dict[str, Any]
) -> Subscription:
    """A shard's wire answer as a :class:`Subscription` under ``sub_id``.

    Inverts :meth:`Subscription.result_dict`, so the mirror serialises
    exactly as the shard's own subscription does.
    """
    kind, wire = reply["kind"], reply["result"]
    if kind == "knn":
        result: Any = [tuple(pair) for pair in wire["neighbors"]]
    else:
        result = {
            int(u): tuple(tuple(pair) for pair in row)
            for u, row in wire["rows"].items()
        }
    return Subscription(sub_id, kind, params, result, seq=int(reply["seq"]))
