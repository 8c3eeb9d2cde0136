"""The unified re-authoring framework (the paper's Contribution 1 & 2 glue).

Proximity algorithms never talk to the oracle directly.  They hold a
:class:`SmartResolver` and phrase every distance-dependent ``IF`` through it:

* ``resolver.is_at_least(i, j, t)`` — "is ``dist(i, j) >= t``?"
* ``resolver.less(a, b)``           — "is ``dist(*a) < dist(*b)``?"
* ``resolver.argmin(u, candidates)`` — bounded nearest-candidate search.

Each predicate first consults the configured :class:`BoundProvider`; only
when the bounds are inconclusive does it resolve the distance(s) through the
oracle — exactly the paper's reformulated ``IF`` statement

    if LBdist(o_i, o_j) >= UBdist(o_k, o_l): ...

with a fallback that keeps the host algorithm's output bit-identical to its
vanilla version.

Bound queries run through a **per-pair memo keyed on endpoint edge-insert
epochs** (:meth:`PartialDistanceGraph.node_epoch`):

* equal epochs ⇒ the graph around both endpoints is unchanged, so the
  cached interval is *exactly* what the provider would recompute — serve it;
* moved epochs ⇒ the cached interval is stale but still **valid** (resolving
  edges only adds constraints, so true bounds only tighten; the cached
  interval still contains the distance).  Predicates therefore try the
  stale interval first — a conclusive verdict from a looser interval is
  necessarily the verdict the fresh interval would give — and recompute
  only when the stale interval is inconclusive.

Both moves are invisible in outputs: every decision and every resolution
happens exactly as it would without the memo; only CPU time moves.
Nearest-candidate scans (``argmin``/``knearest``) bound their whole
frontier up front through the provider's
:meth:`~repro.core.bounds.BaseBoundProvider.bounds_many` batch API, so
vectorised schemes (Tri, LAESA) answer them with array kernels.

Every distance the resolver buys goes through **one resolution routine**
(:meth:`SmartResolver._resolve`): the stretch gate, then the oracle charge
and the commit (graph insert, provider update, memo eviction) in sorted
canonical-pair order.  Candidate scans (``argmin``/``knearest``/``within``)
feed it **resolution waves**: up to ``wave_width`` candidates that pass the
serial scan's pruning test are resolved together, then the serial update
rule runs over them in scan order.  The width is the parallelism of
whatever evaluates a wave (1 with no executor), and at width 1 a wave scan
*is* the serial scan — same pairs, same order, same counters.  A host
that owns the shared state (the service engine) configures the routine
through hooks instead of overriding it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.bounds import BoundProvider, Bounds, TrivialBounder
from repro.core.oracle import ComparisonOracle, DistanceOracle, canonical_pair
from repro.core.partial_graph import PartialDistanceGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.batch_oracle import BatchOracle

Pair = Tuple[int, int]

#: Memo entry: (interval, epoch of low endpoint, epoch of high endpoint).
_MemoEntry = Tuple[Bounds, int, int]

#: ``commit(pairs, fetch)`` — see ``SmartResolver(resolve_step=...)``.
Commit = Callable[[Sequence[Pair], Callable[[Sequence[Pair]], Dict[Pair, float]]], int]


@dataclass
class ResolverStats:
    """Counters describing how predicates were decided and distances obtained.

    Comparisons and resolutions are counted *separately*: one predicate that
    falls back to the oracle increments ``decided_by_oracle`` exactly once,
    even when settling it takes two resolutions (``less`` on two unknown
    pairs).  Each resolution is then classified by what it cost — a charged
    oracle call (``oracle_resolutions``), a free oracle-cache hit
    (``cached_resolutions``) — and additionally tallied in
    ``batched_resolutions`` when it went out through a batcher.

    The bound-engine counters attribute CPU rather than oracle calls:
    ``bound_time_s`` is the wall time spent inside provider bound kernels,
    ``bound_cache_hits`` the queries answered from the epoch memo without
    recomputation (including stale-but-conclusive reuses),
    ``vectorized_batches`` the multi-pair dispatches that hit a provider's
    array kernel, and ``dijkstra_runs`` the shortest-path trees SPLUB-style
    providers actually computed (synced by :meth:`SmartResolver.collect_stats`).

    The tier counters split resolution cost by oracle tier:
    ``strong_calls`` mirrors ``oracle_resolutions`` (every charged exact
    call is a strong call — in a single-oracle run the two are equal by
    construction), while ``weak_calls`` and ``weak_band`` are synced from a
    :class:`~repro.core.tiering.WeakBoundProvider` when one is active —
    charged estimate calls and bound queries the error band tightened.
    """

    decided_by_bounds: int = 0
    decided_by_oracle: int = 0
    bound_queries: int = 0
    resolutions: int = 0
    oracle_resolutions: int = 0
    cached_resolutions: int = 0
    batched_resolutions: int = 0
    bound_time_s: float = 0.0
    bound_cache_hits: int = 0
    vectorized_batches: int = 0
    dijkstra_runs: int = 0
    weak_calls: int = 0
    strong_calls: int = 0
    weak_band: int = 0
    #: Distances answered as bounded-stretch estimates (``stretch > 1``)
    #: without resolving through the oracle.  Always 0 in exact mode.
    approx_answers: int = 0

    @property
    def total_comparisons(self) -> int:
        return self.decided_by_bounds + self.decided_by_oracle

    @property
    def prune_rate(self) -> float:
        """Fraction of comparisons settled without any oracle call."""
        total = self.total_comparisons
        if total == 0:
            return 0.0
        return self.decided_by_bounds / total

    def merge(self, other: "ResolverStats") -> "ResolverStats":
        """Sum of two runs' counters (all fields are additive)."""
        return ResolverStats(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )


class SmartResolver:
    """Bound-aware, exactness-preserving distance comparison engine.

    Parameters
    ----------
    oracle:
        The expensive distance oracle.
    bounder:
        A bound provider sharing ``graph``.  Defaults to
        :class:`TrivialBounder` (no pruning — the vanilla algorithm).
    graph:
        The partial distance graph.  When omitted a fresh one is created; when
        a ``bounder`` is supplied its graph is reused so both views agree.
    batcher:
        Optional :class:`repro.exec.BatchOracle` wrapping the same oracle.
        When present, every charge goes through it (so its retry, timeout
        and persistent cache apply to every resolution), and candidate
        scans resolve waves as wide as its executor's ``parallelism``;
        outputs stay identical to the serial path.
    bound_cache:
        Keep the epoch-keyed per-pair bound memo (default).  ``False``
        recomputes every bound query from scratch — decisions, resolutions,
        and outputs are identical either way; only CPU time moves.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  The hot
        path keeps mutating :attr:`stats` exactly as before (resolved-edge
        sequences are byte-identical with or without a registry); deltas
        are folded into the registry at :meth:`collect_stats`, and bound
        interval widths are observed into a ``repro_bound_gap`` histogram.
    stretch:
        Approximation budget (default ``1.0`` — exact).  With ``stretch >
        1``, a distance request whose current bound interval satisfies
        ``ub <= stretch · lb`` is answered with ``ub`` — guaranteed within
        a factor ``stretch`` of the true distance — *without* an oracle
        call or a graph commit.  At the default every code path is
        byte-identical to the pre-stretch resolver (the gate never runs).
        Each accepted estimate is tallied in ``stats.approx_answers`` and
        its realised ratio observed into the ``repro_answer_stretch``
        histogram (when instrumented); by construction the ratio never
        exceeds the budget.

    Hooks (keyword-only, each ``None`` by default — the offline path then
    pays one ``is None`` test and no call).  A host that shares the graph
    between concurrent users configures them instead of subclassing:

    memo:
        The per-pair bound memo dict to use (default: a private one).
        Epoch keys keep a memo shared between resolvers sound.
    stretch_hist:
        Histogram that observes realised stretch (default: the one
        :meth:`instrument` declares, if any).
    read_guard:
        ``read_guard()`` runs before every bound read.
    note_known:
        ``note_known(pair)`` runs for each requested pair the graph
        already holds.
    before_charge:
        ``before_charge(pairs)`` runs before the still-unknown pairs of a
        resolution are charged; raising refuses them.
    resolve_step:
        ``resolve_step(pairs, commit)`` replaces the default charge: it
        obtains the pairs' distances however it likes and must call
        ``commit(pairs, fetch)`` exactly once, where ``fetch(pairs)``
        returns ``{pair: distance}``; ``commit`` records each distance with
        the oracle and commits it in order, and returns the fresh charges.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        bounder: Optional[BoundProvider] = None,
        graph: Optional[PartialDistanceGraph] = None,
        batcher: Optional["BatchOracle"] = None,
        bound_cache: bool = True,
        registry: Optional[Any] = None,
        stretch: float = 1.0,
        *,
        memo: Optional[Dict[Pair, _MemoEntry]] = None,
        stretch_hist: Optional[Any] = None,
        read_guard: Optional[Callable[[], None]] = None,
        note_known: Optional[Callable[[Pair], None]] = None,
        before_charge: Optional[Callable[[List[Pair]], None]] = None,
        resolve_step: Optional[Callable[[List[Pair], Commit], None]] = None,
    ) -> None:
        if graph is None:
            graph = getattr(bounder, "graph", None)
            if graph is None:
                graph = PartialDistanceGraph(oracle.n)
        bounder_graph = getattr(bounder, "graph", None)
        if bounder_graph is not None and bounder_graph is not graph:
            raise ValueError("bounder and resolver must share the same PartialDistanceGraph")
        if batcher is not None and batcher.oracle is not oracle:
            raise ValueError("batcher must wrap the same DistanceOracle as the resolver")
        if stretch < 1.0:
            raise ValueError("stretch budget must be >= 1.0 (1.0 = exact)")
        self.oracle = oracle
        self.graph = graph
        self._bounder: BoundProvider = bounder or TrivialBounder(graph)
        self.batcher = batcher
        self.bound_cache = bound_cache
        self._bound_memo: Dict[Pair, _MemoEntry] = {} if memo is None else memo
        #: Candidates one resolution wave may hold: the parallelism of
        #: whatever evaluates a wave.  A host with its own ``resolve_step``
        #: sets it to its executor's parallelism.
        self.wave_width = batcher.executor.parallelism if batcher is not None else 1
        self._read_guard = read_guard
        self._note_known = note_known
        self._before_charge = before_charge
        self._resolve_step = resolve_step
        self.stats = ResolverStats()
        self.registry = None
        self._published_stats: Optional[ResolverStats] = None
        self._gap_hist = None
        self.stretch = float(stretch)
        #: Accepted bounded-stretch estimates, keyed on the canonical pair —
        #: repeat reads of one pair see one consistent value.
        self._approx_cache: Dict[Pair, float] = {}
        #: Largest realised ratio (estimate / lower bound) accepted so far.
        self.max_realized_stretch = 0.0
        self._stretch_hist = stretch_hist
        if registry is not None:
            self.instrument(registry)

    def instrument(self, registry: Any) -> None:
        """Attach a metrics registry (the unified ``instrument`` convention).

        Equivalent to passing ``registry=`` at construction: declares the
        ``repro_bound_gap`` histogram and pre-declares every resolver
        counter family so zero-activity metrics still appear in snapshots
        (absent != zero to a scraper).  Stats deltas flow into the registry
        at each :meth:`collect_stats`.
        """
        # Imported lazily so repro.core stays importable on its own.
        from repro.obs.bridge import RESOLVER_METRICS
        from repro.obs.registry import ANSWER_STRETCH_BUCKETS, BOUND_GAP_BUCKETS

        self.registry = registry
        self._gap_hist = registry.histogram(
            "repro_bound_gap",
            BOUND_GAP_BUCKETS,
            help_text="Width (ub - lb) of provider bound intervals when computed.",
        )
        self._stretch_hist = registry.histogram(
            "repro_answer_stretch",
            ANSWER_STRETCH_BUCKETS,
            help_text=(
                "Realised stretch (estimate / lower bound) of approximate "
                "answers; bounded by the job's stretch budget."
            ),
        )
        for _field, metric, labels, help_text in RESOLVER_METRICS:
            family = registry.counter(metric, help_text, labelnames=tuple(labels))
            if labels:
                family.labels(**labels)

    @property
    def bounder(self) -> BoundProvider:
        """The active bound provider."""
        return self._bounder

    @bounder.setter
    def bounder(self, provider: BoundProvider) -> None:
        # A different provider computes different (not merely looser)
        # intervals, so the memo must not survive the swap.
        self._bounder = provider
        self._bound_memo.clear()

    def invalidate_bound_cache(self) -> None:
        """Drop every memoised interval.

        Call this after reconfiguring the active provider in place (e.g.
        ``Laesa.adopt`` on a provider that has already answered queries) —
        epoch keys only track *graph* growth, not provider surgery.
        """
        self._bound_memo.clear()

    # -- raw access ---------------------------------------------------------

    def known(self, i: int, j: int) -> Optional[float]:
        """The resolved distance for ``(i, j)``, or None (never calls the oracle)."""
        return self.graph.get(i, j)

    def _approx_estimate(self, i: int, j: int) -> Optional[float]:
        """Bounded-stretch answer for an unknown pair, or None to go exact.

        Accepts the pair's current upper bound as the answer when the
        interval certifies ``ub <= stretch · lb`` — the acceptance test is
        on the *ratio*, so the realised stretch observed into the histogram
        can never exceed the budget.  Accepted estimates are cached on the
        canonical pair (one histogram observation, one stable value per
        pair) and **never** committed to the graph: the partial distance
        graph stays a store of exact distances only.
        """
        key = canonical_pair(i, j)
        hit = self._approx_cache.get(key)
        if hit is not None:
            return hit
        b = self.bounds(i, j)
        lb, ub = b.lower, b.upper
        if not math.isfinite(ub):
            return None
        if ub == lb:
            ratio = 1.0
        elif lb > 0.0:
            ratio = ub / lb
        else:
            return None
        if ratio > self.stretch:
            return None
        self._approx_cache[key] = ub
        self.stats.approx_answers += 1
        if ratio > self.max_realized_stretch:
            self.max_realized_stretch = ratio
        if self._stretch_hist is not None:
            self._stretch_hist.observe(ratio)
        return ub

    def distance(self, i: int, j: int) -> float:
        """The exact distance, resolving through the oracle when unknown.

        With a ``stretch`` budget above 1, an unknown pair whose bound
        interval already certifies the budget is answered with its upper
        bound instead (see :meth:`_approx_estimate`); at the default budget
        this path never runs.
        """
        if i == j:
            return 0.0
        cached = self.graph.get(i, j)
        if cached is not None:
            if self._note_known is not None:
                self._note_known(canonical_pair(i, j))
            return cached
        key = canonical_pair(i, j)
        self._resolve((key,))
        value = self.graph.get(i, j)
        return self._approx_cache[key] if value is None else value

    def resolve_many(self, pairs: Iterable[Pair]) -> Dict[Pair, float]:
        """Resolve a set of pairs at once, returning ``{canonical_pair: d}``.

        The unknown pairs are charged and committed in canonical-pair sorted
        order — with a batcher configured, as one executor batch.  Both
        paths produce the state per-pair :meth:`distance` calls over the
        same sorted sequence would.
        """
        keys = sorted({canonical_pair(i, j) for i, j in pairs if i != j})
        self._resolve(keys)
        graph = self.graph
        # Exact values win over cached estimates — a pair may have been
        # resolved exactly after its estimate was accepted.
        approx = self._approx_cache
        out: Dict[Pair, float] = {}
        for key in keys:
            exact = graph.get(*key)
            out[key] = approx[key] if exact is None else exact
        return out

    def _resolve(self, keys: Sequence[Pair]) -> None:
        """The one resolution routine: buy every unknown pair of ``keys``.

        ``keys`` are distinct canonical pairs in sorted order.  Pairs the
        graph already holds are noted as known; with a stretch budget,
        pairs whose interval certifies it are answered approximately and
        drop out; the rest are charged and committed in order (through the
        ``resolve_step`` hook when one is configured).
        """
        graph = self.graph
        note_known = self._note_known
        unknown: List[Pair] = []
        for key in keys:
            if graph.get(*key) is None:
                unknown.append(key)
            elif note_known is not None:
                note_known(key)
        if unknown and self.stretch > 1.0:
            unknown = [key for key in unknown if self._approx_estimate(*key) is None]
        if not unknown:
            return
        if self._before_charge is not None:
            self._before_charge(unknown)
        if self._resolve_step is not None:
            self._resolve_step(unknown, self._commit)
        elif self.batcher is not None:
            self.stats.batched_resolutions += len(unknown)
            self._commit(unknown, self.batcher.resolve_many)
        else:
            self._commit(unknown)

    def _commit(
        self,
        keys: Sequence[Pair],
        fetch: Optional[Callable[[Sequence[Pair]], Dict[Pair, float]]] = None,
    ) -> int:
        """Charge and commit ``keys`` in order; returns the fresh charges.

        Per pair: the oracle charge (an inline ``oracle(i, j)`` call, or
        recording the distance ``fetch`` obtained), the graph insert, the
        provider update and the memo eviction — the serial scan's sequence.
        """
        oracle = self.oracle
        graph = self.graph
        bounder = self._bounder
        memo = self._bound_memo
        before = oracle.calls
        values = None if fetch is None else fetch(keys)
        for key in keys:
            value = oracle(*key) if values is None else oracle.record(*key, values[key])
            if graph.add_edge(*key, value):
                bounder.notify_resolved(*key, value)
                memo.pop(key, None)
        fresh = oracle.calls - before
        stats = self.stats
        stats.resolutions += len(keys)
        stats.oracle_resolutions += fresh
        stats.strong_calls += fresh
        stats.cached_resolutions += len(keys) - fresh
        return fresh

    # -- bound queries ------------------------------------------------------

    def bounds(self, i: int, j: int) -> Bounds:
        """Current bounds on ``dist(i, j)`` (free — no oracle calls).

        Always *fresh*: a memoised interval is served only when both
        endpoint epochs are unchanged, i.e. when recomputation would return
        the identical interval.
        """
        if self._read_guard is not None:
            self._read_guard()
        self.stats.bound_queries += 1
        if i == j:
            return Bounds(0.0, 0.0)
        known = self.graph.get(i, j)
        if known is not None:
            return Bounds(known, known)
        key = canonical_pair(i, j)
        if self.bound_cache:
            entry = self._bound_memo.get(key)
            if (
                entry is not None
                and entry[1] == self.graph.node_epoch(key[0])
                and entry[2] == self.graph.node_epoch(key[1])
            ):
                self.stats.bound_cache_hits += 1
                return entry[0]
        return self._compute_bounds(key)

    def bounds_many(self, pairs: Iterable[Pair]) -> List[Bounds]:
        """Fresh bounds for a whole frontier, batched through the provider.

        Element-for-element equal to ``[self.bounds(i, j) for i, j in
        pairs]`` — known pairs and memo hits are answered inline, the rest
        go to the provider's ``bounds_many`` (one array-kernel dispatch for
        vectorised schemes) and land in the memo.
        """
        if self._read_guard is not None:
            self._read_guard()
        pairs = list(pairs)
        self.stats.bound_queries += len(pairs)
        out: List[Optional[Bounds]] = [None] * len(pairs)
        todo_keys: List[Pair] = []
        todo_slots: Dict[Pair, List[int]] = {}
        graph = self.graph
        for idx, (i, j) in enumerate(pairs):
            if i == j:
                out[idx] = Bounds(0.0, 0.0)
                continue
            known = graph.get(i, j)
            if known is not None:
                out[idx] = Bounds(known, known)
                continue
            key = canonical_pair(i, j)
            slots = todo_slots.get(key)
            if slots is not None:  # duplicate within the batch
                slots.append(idx)
                continue
            if self.bound_cache:
                entry = self._bound_memo.get(key)
                if (
                    entry is not None
                    and entry[1] == graph.node_epoch(key[0])
                    and entry[2] == graph.node_epoch(key[1])
                ):
                    self.stats.bound_cache_hits += 1
                    out[idx] = entry[0]
                    continue
            todo_slots[key] = [idx]
            todo_keys.append(key)
        if todo_keys:
            batch_fn = getattr(self._bounder, "bounds_many", None)
            start = time.perf_counter()
            if batch_fn is None:
                computed = [self._bounder.bounds(*key) for key in todo_keys]
            else:
                computed = batch_fn(todo_keys)
            self.stats.bound_time_s += time.perf_counter() - start
            if len(todo_keys) > 1 and getattr(self._bounder, "vectorized_bounds", False):
                self.stats.vectorized_batches += 1
            for key, b in zip(todo_keys, computed):
                if self._gap_hist is not None:
                    self._gap_hist.observe(b.upper - b.lower)
                if self.bound_cache:
                    self._bound_memo[key] = (
                        b,
                        graph.node_epoch(key[0]),
                        graph.node_epoch(key[1]),
                    )
                for idx in todo_slots[key]:
                    out[idx] = b
        return out

    def _compute_bounds(self, key: Pair) -> Bounds:
        """Recompute (and memoise) the provider interval for a canonical pair."""
        graph = self.graph
        epoch_lo = graph.node_epoch(key[0])
        epoch_hi = graph.node_epoch(key[1])
        start = time.perf_counter()
        b = self._bounder.bounds(*key)
        self.stats.bound_time_s += time.perf_counter() - start
        if self._gap_hist is not None:
            self._gap_hist.observe(b.upper - b.lower)
        if self.bound_cache:
            self._bound_memo[key] = (b, epoch_lo, epoch_hi)
        return b

    def _bounds_for_decision(self, i: int, j: int) -> Tuple[Bounds, bool]:
        """Bounds for a predicate, allowing a stale memo entry.

        Returns ``(interval, fresh)``.  A stale interval (``fresh=False``)
        still contains the true distance — added edges only tighten bounds —
        so a *conclusive* verdict read from it is exactly the verdict fresh
        bounds would give.  Callers must recompute before treating an
        inconclusive stale interval as final.
        """
        if self._read_guard is not None:
            self._read_guard()
        self.stats.bound_queries += 1
        if i == j:
            return Bounds(0.0, 0.0), True
        known = self.graph.get(i, j)
        if known is not None:
            return Bounds(known, known), True
        key = canonical_pair(i, j)
        if self.bound_cache:
            entry = self._bound_memo.get(key)
            if entry is not None:
                if entry[1] == self.graph.node_epoch(key[0]) and entry[2] == self.graph.node_epoch(
                    key[1]
                ):
                    self.stats.bound_cache_hits += 1
                    return entry[0], True
                return entry[0], False
        return self._compute_bounds(key), True

    def _refresh_bounds(self, i: int, j: int) -> Bounds:
        """Force-recompute bounds for a pair known to be unresolved."""
        return self._compute_bounds(canonical_pair(i, j))

    # -- re-authored predicates ----------------------------------------------

    def is_at_least(self, i: int, j: int, threshold: float) -> bool:
        """Exact answer to ``dist(i, j) >= threshold``.

        Decides from bounds when possible (``LB >= t`` or ``UB < t``); falls
        back to one oracle resolution otherwise.
        """
        b, fresh = self._bounds_for_decision(i, j)
        if b.lower >= threshold:
            if not fresh:
                self.stats.bound_cache_hits += 1
            self.stats.decided_by_bounds += 1
            return True
        if b.upper < threshold:
            if not fresh:
                self.stats.bound_cache_hits += 1
            self.stats.decided_by_bounds += 1
            return False
        if not fresh:
            b = self._refresh_bounds(i, j)
            if b.lower >= threshold:
                self.stats.decided_by_bounds += 1
                return True
            if b.upper < threshold:
                self.stats.decided_by_bounds += 1
                return False
        self.stats.decided_by_oracle += 1
        return self.distance(i, j) >= threshold

    def is_greater(self, i: int, j: int, threshold: float) -> bool:
        """Exact answer to ``dist(i, j) > threshold``."""
        b, fresh = self._bounds_for_decision(i, j)
        if b.lower > threshold:
            if not fresh:
                self.stats.bound_cache_hits += 1
            self.stats.decided_by_bounds += 1
            return True
        if b.upper <= threshold:
            if not fresh:
                self.stats.bound_cache_hits += 1
            self.stats.decided_by_bounds += 1
            return False
        if not fresh:
            b = self._refresh_bounds(i, j)
            if b.lower > threshold:
                self.stats.decided_by_bounds += 1
                return True
            if b.upper <= threshold:
                self.stats.decided_by_bounds += 1
                return False
        self.stats.decided_by_oracle += 1
        return self.distance(i, j) > threshold

    def is_less_than(self, i: int, j: int, threshold: float) -> bool:
        """Exact answer to ``dist(i, j) < threshold``."""
        return not self.is_at_least(i, j, threshold)

    def less(self, a: Pair, b: Pair) -> bool:
        """Exact answer to ``dist(*a) < dist(*b)``.

        Uses the paper's §3 reformulation ``UB(a) < LB(b) ⇒ true`` /
        ``LB(a) >= UB(b) ⇒ false`` before resorting to resolution.  The
        provider's :meth:`BoundProvider.decide_less` (a joint-feasibility
        decision for schemes like the Direct Feasibility Test; ``None`` for
        the rest) runs before any oracle call.
        """
        ba, fresh_a = self._bounds_for_decision(*a)
        bb, fresh_b = self._bounds_for_decision(*b)
        if ba.upper < bb.lower:
            self.stats.bound_cache_hits += (not fresh_a) + (not fresh_b)
            self.stats.decided_by_bounds += 1
            return True
        if ba.lower >= bb.upper:
            self.stats.bound_cache_hits += (not fresh_a) + (not fresh_b)
            self.stats.decided_by_bounds += 1
            return False
        if not (fresh_a and fresh_b):
            if not fresh_a:
                ba = self._refresh_bounds(*a)
            if not fresh_b:
                bb = self._refresh_bounds(*b)
            if ba.upper < bb.lower:
                self.stats.decided_by_bounds += 1
                return True
            if ba.lower >= bb.upper:
                self.stats.decided_by_bounds += 1
                return False
        verdict = self._bounder.decide_less(a, b)
        if verdict is not None:
            self.stats.decided_by_bounds += 1
            return verdict
        self.stats.decided_by_oracle += 1
        # Resolve the pair with the wider interval first: its value may settle
        # the comparison against the other pair's bounds with a single call.
        first, second = (a, b) if ba.gap >= bb.gap else (b, a)
        d_first = self.distance(*first)
        b_second = self.bounds(*second)
        if first == a:
            if d_first < b_second.lower:
                return True
            if d_first >= b_second.upper:
                return False
            return d_first < self.distance(*b)
        if b_second.upper < d_first:
            return True
        if b_second.lower >= d_first:
            return False
        return self.distance(*a) < d_first

    def compare(self, a: Pair, b: Pair) -> int:
        """Exact three-way comparison: sign of ``dist(*a) − dist(*b)``.

        The decision ladder mirrors :meth:`less`: disjoint bound intervals
        settle the sign with no oracle call; overlapping intervals consult
        the provider's :meth:`~repro.bounds.base.BoundProvider.decide_less`
        joint test in both directions; only then are the pairs resolved.
        Exact intervals (``lower == upper``) are treated as resolved values,
        so a tie between two already-known distances returns 0 for free.
        This is the seam the comparison-only oracle mode builds on — see
        :meth:`comparison_view`.
        """
        ba, fresh_a = self._bounds_for_decision(*a)
        bb, fresh_b = self._bounds_for_decision(*b)
        if ba.upper < bb.lower:
            self.stats.bound_cache_hits += (not fresh_a) + (not fresh_b)
            self.stats.decided_by_bounds += 1
            return -1
        if ba.lower > bb.upper:
            self.stats.bound_cache_hits += (not fresh_a) + (not fresh_b)
            self.stats.decided_by_bounds += 1
            return 1
        if not (fresh_a and fresh_b):
            if not fresh_a:
                ba = self._refresh_bounds(*a)
            if not fresh_b:
                bb = self._refresh_bounds(*b)
            if ba.upper < bb.lower:
                self.stats.decided_by_bounds += 1
                return -1
            if ba.lower > bb.upper:
                self.stats.decided_by_bounds += 1
                return 1
        if ba.is_exact and bb.is_exact:
            self.stats.decided_by_bounds += 1
            da, db = ba.lower, bb.lower
        else:
            if self._bounder.decide_less(a, b):
                self.stats.decided_by_bounds += 1
                return -1
            if self._bounder.decide_less(b, a):
                self.stats.decided_by_bounds += 1
                return 1
            self.stats.decided_by_oracle += 1
            da = self.distance(*a)
            db = self.distance(*b)
        if da < db:
            return -1
        if da > db:
            return 1
        return 0

    def comparison_view(self) -> ComparisonOracle:
        """An ordering-only facade over this resolver.

        The returned :class:`~repro.core.oracle.ComparisonOracle` answers
        ``less``/``compare``/``rank_less`` ordering queries through this
        resolver's bound-accelerated predicates but never exposes a distance
        magnitude, and counts the ordering queries it serves.
        """
        return ComparisonOracle(self)

    # -- bounded searches ------------------------------------------------------

    def argmin(
        self,
        u: int,
        candidates: Sequence[int],
        upper_limit: float = math.inf,
    ) -> Tuple[Optional[int], float]:
        """Exact nearest candidate to ``u`` with lower-bound pruning.

        Returns ``(index, distance)`` of the candidate minimising
        ``dist(u, c)`` with earliest-index tie-breaking (matching a vanilla
        linear scan), or ``(None, inf)`` when every candidate's distance is
        ``>= upper_limit``.  The limit is *exclusive*: a candidate at exactly
        ``upper_limit`` is never returned.  Candidates whose lower bound
        already meets the current best are skipped without oracle calls.
        The scan resolves in waves (see the module docstring); until there
        is an incumbent, a wave is one candidate.
        """
        best_idx: Optional[int] = None
        best_dist = upper_limit
        # Probe candidates in ascending lower-bound order so tight candidates
        # shrink the pruning threshold early.  One batched bound sweep feeds
        # the sort; the scan below re-reads bounds pair by pair (they tighten
        # as resolutions land).
        initial = self.bounds_many([(u, c) for c in candidates])
        order = sorted(range(len(candidates)), key=lambda pos: initial[pos].lower)
        scan = iter(order)
        while True:
            wave: List[int] = []
            # The best after this wave is at most any pending candidate's
            # upper bound, so a lower bound above it prunes already.
            bound = best_dist
            for pos in scan:
                b = self.bounds(u, candidates[pos])
                if b.lower > bound or (
                    # Cannot strictly improve; cannot win a tie either (and
                    # with no incumbent, matching the exclusive limit never
                    # counts).
                    b.lower == best_dist and (best_idx is None or best_idx <= pos)
                ):
                    self.stats.decided_by_bounds += 1
                    continue
                self.stats.decided_by_oracle += 1
                wave.append(pos)
                if best_idx is None or len(wave) >= self.wave_width:
                    break
                bound = min(bound, b.upper)
            if not wave:
                break
            distances = self._wave_distances(u, [candidates[pos] for pos in wave])
            for pos, d in zip(wave, distances):
                if d < best_dist or (d == best_dist and best_idx is not None and pos < best_idx):
                    best_dist = d
                    best_idx = pos
        if best_idx is None:
            return None, math.inf
        return candidates[best_idx], best_dist

    def knearest(
        self,
        u: int,
        candidates: Iterable[int],
        k: int,
    ) -> list[Tuple[float, int]]:
        """Exact ``k`` nearest candidates to ``u`` with threshold pruning.

        Returns ``[(distance, candidate), ...]`` sorted ascending (ties by
        candidate id), identical to a vanilla full scan.  A candidate is
        resolved only when its lower bound beats the current ``k``-th best.
        The scan resolves in waves (see the module docstring); while fewer
        than ``k`` candidates are held, a wave takes at most the missing
        number.
        """
        if k <= 0:
            return []
        pool = [c for c in candidates if c != u]
        # Ascending lower bound order maximises early threshold shrinkage;
        # the whole frontier is bounded in one batched sweep.
        initial = self.bounds_many([(u, c) for c in pool])
        order = sorted(range(len(pool)), key=lambda pos: initial[pos].lower)
        scan = iter([pool[pos] for pos in order])
        heap: list[Tuple[float, int]] = []
        kth = math.inf
        while True:
            room = self.wave_width if len(heap) >= k else min(self.wave_width, k - len(heap))
            wave: List[int] = []
            # The k-th best after this wave is at most the k-th smallest of
            # the held distances and the pending candidates' upper bounds.
            bound = kth
            uppers: List[float] = []
            for c in scan:
                b = self.bounds(u, c)
                if len(heap) >= k and b.lower > bound:
                    self.stats.decided_by_bounds += 1
                    continue
                self.stats.decided_by_oracle += 1
                wave.append(c)
                if len(wave) >= room:
                    break
                if len(heap) >= k:
                    uppers.append(b.upper)
                    bound = sorted([d for d, _ in heap] + uppers)[k - 1]
            if not wave:
                break
            for c, d in zip(wave, self._wave_distances(u, wave)):
                heap.append((d, c))
                if len(heap) >= k:
                    heap.sort()
                    del heap[k:]
                    kth = heap[-1][0]
        heap.sort()
        return heap[:k]

    def within(self, u: int, candidates: Iterable[int], radius: float) -> List[int]:
        """The candidates ``c != u`` with ``dist(u, c) <= radius``, in scan order.

        A candidate whose lower bound exceeds the radius is rejected, and one
        whose upper bound fits is accepted, both without an oracle call; the
        rest resolve in waves (see the module docstring).
        """
        hits: List[int] = []
        scan = iter(candidates)
        while True:
            wave: List[int] = []
            for c in scan:
                if c == u:
                    continue
                b = self.bounds(u, c)
                if b.lower > radius or b.upper <= radius:
                    self.stats.decided_by_bounds += 1
                    if b.upper <= radius:
                        hits.append(c)
                    continue
                self.stats.decided_by_oracle += 1
                wave.append(c)
                if len(wave) >= self.wave_width:
                    break
            if not wave:
                break
            hits.extend(c for c, d in zip(wave, self._wave_distances(u, wave)) if d <= radius)
        return hits

    def _wave_distances(self, u: int, wave: List[int]) -> List[float]:
        """Resolve one wave of candidates; their distances to ``u`` in wave order."""
        if len(wave) == 1:
            return [self.distance(u, wave[0])]
        resolved = self.resolve_many([(u, c) for c in wave])
        return [0.0 if c == u else resolved[canonical_pair(u, c)] for c in wave]

    # -- accounting -----------------------------------------------------------

    def collect_stats(self) -> ResolverStats:
        """The live :class:`ResolverStats`, with provider counters synced.

        Pulls ``dijkstra_runs``, ``weak_calls``, and ``weak_band`` from the
        active provider (SPLUB and the weak provider keep them;
        :class:`~repro.core.bounds.IntersectionBounder` sums its members)
        so harness records and CLI tables see one coherent view.  When a
        registry is attached, the delta since the last collection is folded
        into its counters (publishing is idempotent across repeat calls).
        """
        self.stats.dijkstra_runs = int(getattr(self._bounder, "dijkstra_runs", 0))
        self.stats.weak_calls = int(getattr(self._bounder, "weak_calls", 0))
        self.stats.weak_band = int(getattr(self._bounder, "weak_band", 0))
        if self.registry is not None:
            from repro.obs.bridge import publish_resolver_stats

            self._published_stats = publish_resolver_stats(
                self.registry, self.stats, self._published_stats
            )
        return self.stats
