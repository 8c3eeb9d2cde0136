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
Frontier-shaped queries (``argmin``/``knearest`` candidate scans,
``prefetch_thresholds``) are additionally routed through the provider's
:meth:`~repro.core.bounds.BaseBoundProvider.bounds_many` batch API so
vectorised schemes (Tri, LAESA) answer them with array kernels.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.bounds import BoundProvider, Bounds, TrivialBounder
from repro.core.oracle import ComparisonOracle, DistanceOracle, canonical_pair
from repro.core.partial_graph import PartialDistanceGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.batch_oracle import BatchOracle

Pair = Tuple[int, int]

#: Memo entry: (interval, epoch of low endpoint, epoch of high endpoint).
_MemoEntry = Tuple[Bounds, int, int]


@dataclass
class ResolverStats:
    """Counters describing how predicates were decided and distances obtained.

    Comparisons and resolutions are counted *separately*: one predicate that
    falls back to the oracle increments ``decided_by_oracle`` exactly once,
    even when settling it takes two resolutions (``less`` on two unknown
    pairs).  Each resolution is then classified by what it cost — a charged
    oracle call (``oracle_resolutions``), a free oracle-cache hit
    (``cached_resolutions``) — and additionally tallied in
    ``batched_resolutions`` when it went through ``resolve_many``.

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
        When present, ``resolve_many`` (and the batched ``knearest`` /
        ``argmin`` paths) dispatch whole frontiers through it instead of
        resolving pair by pair; outputs stay identical to the serial path.
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
        self._bound_memo: Dict[Pair, _MemoEntry] = {}
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
        self._stretch_hist = None
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

    def forget_objects(self, ids) -> int:
        """Purge memoised intervals and approximations touching ``ids``.

        Required when object ids are removed or recycled: the stale-but-
        conclusive reuse path may otherwise serve a dead incarnation's
        interval for a brand-new object.  Returns the number of entries
        dropped.
        """
        ids = set(ids)
        dropped = 0
        for cache in (self._bound_memo, self._approx_cache):
            stale = [key for key in cache if key[0] in ids or key[1] in ids]
            for key in stale:
                del cache[key]
            dropped += len(stale)
        return dropped

    @property
    def batched(self) -> bool:
        """True when frontiers are dispatched through a batch executor."""
        return self.batcher is not None

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
            return cached
        if self.stretch > 1.0:
            estimate = self._approx_estimate(i, j)
            if estimate is not None:
                return estimate
        before = self.oracle.calls
        value = self.oracle(i, j)
        self.stats.resolutions += 1
        if self.oracle.calls > before:
            self.stats.oracle_resolutions += 1
            self.stats.strong_calls += 1
        else:
            self.stats.cached_resolutions += 1
        if self.graph.add_edge(i, j, value):
            self._bound_memo.pop(canonical_pair(i, j), None)
            self._bounder.notify_resolved(i, j, value)
        return value

    def resolve_many(self, pairs: Iterable[Pair]) -> Dict[Pair, float]:
        """Resolve a set of pairs at once, returning ``{canonical_pair: d}``.

        With a batcher configured, the genuinely unknown pairs go out as one
        executor batch and come back committed in canonical-pair sorted
        order (graph insert + bounder notification on the calling thread,
        exactly as if resolved serially in that order).  Without one, this
        degrades to per-pair :meth:`distance` calls over the same sorted
        sequence — the two paths produce identical state.
        """
        keys = sorted({canonical_pair(i, j) for i, j in pairs if i != j})
        unknown = [key for key in keys if self.graph.get(*key) is None]
        if unknown and self.stretch > 1.0:
            # Same gate as ``distance``: pairs whose interval certifies the
            # budget are answered approximately and drop out of the batch.
            unknown = [key for key in unknown if self._approx_estimate(*key) is None]
        if unknown:
            if self.batcher is None:
                for key in unknown:
                    self.distance(*key)
            else:
                before = self.oracle.calls
                resolved = self.batcher.resolve_many(unknown)
                fresh = self.oracle.calls - before
                self.stats.resolutions += len(unknown)
                self.stats.batched_resolutions += len(unknown)
                self.stats.oracle_resolutions += fresh
                self.stats.strong_calls += fresh
                self.stats.cached_resolutions += len(unknown) - fresh
                for key in unknown:  # sorted — deterministic commit order
                    if self.graph.add_edge(*key, resolved[key]):
                        self._bound_memo.pop(key, None)
                        self._bounder.notify_resolved(*key, resolved[key])
        if self._approx_cache:
            # Exact values win over cached estimates — a pair may have been
            # resolved exactly after its estimate was accepted.
            approx = self._approx_cache
            out: Dict[Pair, float] = {}
            for key in keys:
                exact = self.graph.get(*key)
                out[key] = exact if exact is not None else approx[key]
            return out
        return {key: self.graph.get(*key) for key in keys}

    def prefetch_thresholds(self, items: Iterable[Tuple[Pair, float]]) -> int:
        """Batch-resolve every pair its threshold cannot rule out.

        ``items`` yields ``((i, j), threshold)`` — a pair is fetched when its
        distance is unknown and its lower bound is below ``threshold``,
        i.e. exactly the pairs a subsequent serial scan would resolve one by
        one.  No-op (returns 0) unless :attr:`batched`, so algorithms call
        this unconditionally before their decision loops.
        """
        if not self.batched:
            return 0
        candidates: List[Tuple[Pair, float]] = []
        for (i, j), threshold in items:
            if i == j or self.graph.get(i, j) is not None:
                continue
            candidates.append(((i, j), threshold))
        if not candidates:
            return 0
        frontier_bounds = self.bounds_many([pair for pair, _ in candidates])
        wanted = [
            pair
            for (pair, threshold), b in zip(candidates, frontier_bounds)
            if b.lower < threshold
        ]
        if wanted:
            self.resolve_many(wanted)
        return len(wanted)

    # -- bound queries ------------------------------------------------------

    def bounds(self, i: int, j: int) -> Bounds:
        """Current bounds on ``dist(i, j)`` (free — no oracle calls).

        Always *fresh*: a memoised interval is served only when both
        endpoint epochs are unchanged, i.e. when recomputation would return
        the identical interval.
        """
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
        """
        if self.batched and candidates:
            return self._argmin_batched(u, candidates, upper_limit)
        best_idx: Optional[int] = None
        best_dist = upper_limit
        # Probe candidates in ascending lower-bound order so tight candidates
        # shrink the pruning threshold early.  One batched bound sweep feeds
        # the sort; the scan below re-reads bounds pair by pair (they tighten
        # as resolutions land).
        initial = self.bounds_many([(u, c) for c in candidates])
        order = sorted(range(len(candidates)), key=lambda pos: initial[pos].lower)
        for pos in order:
            c = candidates[pos]
            b = self.bounds(u, c)
            if b.lower > best_dist:
                self.stats.decided_by_bounds += 1
                continue
            if b.lower == best_dist and (best_idx is None or best_idx <= pos):
                # Cannot strictly improve; cannot win a tie either (and with
                # no incumbent, matching the exclusive limit never counts).
                self.stats.decided_by_bounds += 1
                continue
            self.stats.decided_by_oracle += 1
            d = self.distance(u, c)
            if d < best_dist or (d == best_dist and best_idx is not None and pos < best_idx):
                best_dist = d
                best_idx = pos
        if best_idx is None:
            return None, math.inf
        return candidates[best_idx], best_dist

    def _argmin_batched(
        self,
        u: int,
        candidates: Sequence[int],
        upper_limit: float,
    ) -> Tuple[Optional[int], float]:
        """Batched argmin: one frontier resolution, then the vanilla scan.

        Resolves every candidate whose lower bound leaves it alive under the
        exclusive ``upper_limit`` — a superset of what the adaptive serial
        scan resolves — then applies the identical update rule, so the
        result (value and tie-broken index) matches the serial path.
        """
        frontier: list[int] = []
        frontier_bounds = self.bounds_many([(u, c) for c in candidates])
        for pos, b in enumerate(frontier_bounds):
            if b.lower >= upper_limit:
                self.stats.decided_by_bounds += 1
                continue
            frontier.append(pos)
        if not frontier:
            return None, math.inf
        self.resolve_many([(u, candidates[pos]) for pos in frontier])
        self.stats.decided_by_oracle += len(frontier)
        best_idx: Optional[int] = None
        best_dist = upper_limit
        for pos in frontier:  # ascending position — earliest index wins ties
            d = self.distance(u, candidates[pos])
            if d < best_dist:
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
        """
        if k <= 0:
            return []
        pool = [c for c in candidates if c != u]
        # Ascending lower bound order maximises early threshold shrinkage;
        # the whole frontier is bounded in one batched sweep.
        initial = self.bounds_many([(u, c) for c in pool])
        order = sorted(range(len(pool)), key=lambda pos: initial[pos].lower)
        pool = [pool[pos] for pos in order]
        if self.batched and pool:
            return self._knearest_batched(u, pool, k)
        heap: list[Tuple[float, int]] = []
        kth = math.inf
        for c in pool:
            b = self.bounds(u, c)
            if len(heap) >= k and b.lower > kth:
                self.stats.decided_by_bounds += 1
                continue
            self.stats.decided_by_oracle += 1
            d = self.distance(u, c)
            heap.append((d, c))
            if len(heap) >= k:
                heap.sort()
                del heap[k:]
                kth = heap[-1][0]
        heap.sort()
        return heap[:k]

    def _knearest_batched(self, u: int, pool: list, k: int) -> list[Tuple[float, int]]:
        """Batched kNN: two frontier resolutions instead of a serial scan.

        Round 1 fetches the ``k`` lowest-lower-bound candidates (the serial
        scan resolves those unconditionally) to establish the pruning
        threshold; round 2 fetches everything whose lower bound still beats
        it.  The resolved set is a superset of the serial scan's, so the
        selected neighbours are identical; under uninformative bounds the
        two sets — and hence the oracle call counts — coincide exactly.
        """
        head = pool[:k]
        self.resolve_many([(u, c) for c in head])
        kth = sorted(self.distance(u, c) for c in head)[min(k, len(head)) - 1]
        tail_bounds = self.bounds_many([(u, c) for c in pool[k:]])
        frontier = [c for c, b in zip(pool[k:], tail_bounds) if b.lower <= kth]
        if len(pool) > k:
            self.stats.decided_by_bounds += len(pool) - k - len(frontier)
        if frontier:
            self.resolve_many([(u, c) for c in frontier])
        self.stats.decided_by_oracle += len(head) + len(frontier)
        result = [(self.distance(u, c), c) for c in head + frontier]
        result.sort()
        return result[:k]

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
