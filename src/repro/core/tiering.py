"""Two-tier weak/strong distance oracles behind the :class:`Oracle` protocol.

*Metric Clustering and MST with Strong and Weak Distance Oracles* (Gershtein
et al., arXiv 2310.15863) observes that many expensive metrics come with a
cheap companion: an estimator whose answer is wrong, but wrong by a *known,
bounded factor* — an embedding distance for strings, the crow-flies distance
for a road network, a low-dimensional projection for feature vectors.  This
module composes such a **weak oracle** with the exact **strong oracle** so
that the weak tier absorbs most of the cost while every final answer stays
byte-identical to a strong-only run:

* :class:`WeakBand` — the error-band contract ``lo·e <= d <= hi·e``;
* :class:`WeakOracle` — a :class:`~repro.core.oracle.DistanceOracle` whose
  answers are estimates carrying a declared band (it inherits all caching,
  counting, and batching machinery, so :class:`repro.exec.BatchOracle` can
  wrap it unchanged);
* :class:`WeakBoundProvider` — turns each weak estimate into a *sound*
  lower/upper interval and feeds it to the bound engine as a first-class
  :class:`~repro.core.bounds.BoundProvider`, so weak answers tighten
  :class:`~repro.core.resolver.SmartResolver` bounds and order candidate
  resolution exactly like any other scheme;
* :class:`TieredOracle` — the weak+strong composition.  It satisfies the
  :class:`~repro.core.oracle.Oracle` protocol by delegating exact
  resolution to the strong tier, and hands out bound providers wired to the
  weak tier.

Exactness is preserved for the same reason every bound scheme preserves it:
the weak tier only ever contributes *intervals*.  The resolver still falls
back to the strong oracle whenever bounds stay inconclusive, so the
resolved-distance values — and hence all outputs — never depend on the
estimates, only the number of strong calls does.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.bounds import BaseBoundProvider, Bounds, IntersectionBounder
from repro.core.oracle import DistanceFn, DistanceOracle, OracleStats, Pair, canonical_pair
from repro.core.partial_graph import PartialDistanceGraph

__all__ = [
    "WeakBand",
    "WeakOracle",
    "WeakBoundProvider",
    "TieredOracle",
]


@dataclass(frozen=True)
class WeakBand:
    """Declared multiplicative error band of a weak oracle.

    An estimate ``e`` with band ``(lo_factor, hi_factor)`` guarantees

        ``lo_factor * e  <=  d  <=  hi_factor * e``

    for the true distance ``d``.  ``hi_factor`` may be ``inf``, declaring a
    pure lower-bound estimator (e.g. crow-flies distance under a road
    metric: the road is never shorter, but may be arbitrarily longer).
    ``lo_factor`` may exceed 1 when the estimator systematically
    *under*-estimates by a known factor.

    The soundness of every bound derived here rests on the band actually
    holding; a violated band can silently change outputs, which is why the
    property tests (``tests/core/test_weak_strong_properties.py``) pin the
    contract.
    """

    lo_factor: float
    hi_factor: float

    def __post_init__(self) -> None:
        if not (self.lo_factor >= 0 and math.isfinite(self.lo_factor)):
            raise ValueError(f"lo_factor must be finite and >= 0, got {self.lo_factor}")
        if not self.hi_factor >= self.lo_factor:
            raise ValueError(
                f"hi_factor ({self.hi_factor}) must be >= lo_factor ({self.lo_factor})"
            )

    @property
    def is_lower_bound_only(self) -> bool:
        """True when the band carries no upper-bound information."""
        return math.isinf(self.hi_factor)

    def interval(self, estimate: float) -> Bounds:
        """The interval the band guarantees around one estimate.

        ``0 * inf`` is guarded: a zero estimate under an infinite
        ``hi_factor`` yields ``[0, inf]``, not NaN.
        """
        if estimate < 0:
            raise ValueError(f"weak estimates must be non-negative, got {estimate}")
        lower = estimate * self.lo_factor
        upper = math.inf if math.isinf(self.hi_factor) else estimate * self.hi_factor
        return Bounds(lower, upper)


def _coerce_band(band) -> WeakBand:
    """Accept a :class:`WeakBand` or a ``(lo, hi)`` tuple."""
    if isinstance(band, WeakBand):
        return band
    lo, hi = band
    return WeakBand(float(lo), float(hi))


class WeakOracle(DistanceOracle):
    """A cheap estimator with a declared error band.

    Subclasses :class:`DistanceOracle`, so estimates are cached, counted,
    and committable through :meth:`record` exactly like exact distances —
    which is what lets :class:`repro.exec.BatchOracle` batch weak calls with
    zero new machinery.  ``weak.calls`` is therefore the number of *charged
    weak estimates*, kept entirely separate from the strong tier's count.

    Parameters
    ----------
    estimate_fn:
        Symmetric, non-negative estimator over object ids.
    n:
        Number of objects in the universe.
    band:
        A :class:`WeakBand` or ``(lo_factor, hi_factor)`` tuple describing
        the guarantee ``lo·e <= d <= hi·e``.
    name:
        Short label surfaced in provider names and reports.
    cost_per_call / budget:
        As on :class:`DistanceOracle` (weak calls are cheap but not
        necessarily free — e.g. a sampled edit distance).
    """

    def __init__(
        self,
        estimate_fn: DistanceFn,
        n: int,
        band,
        *,
        name: str = "weak",
        cost_per_call: float = 0.0,
        budget: int | None = None,
    ) -> None:
        super().__init__(estimate_fn, n, cost_per_call=cost_per_call, budget=budget)
        self.band = _coerce_band(band)
        self.name = str(name)

    def interval(self, i: int, j: int) -> Bounds:
        """The band interval around this pair's estimate (charges the weak tier)."""
        if i == j:
            return Bounds(0.0, 0.0)
        return self.band.interval(self(i, j))


class WeakBoundProvider(BaseBoundProvider):
    """Bound provider backed by a weak oracle's banded estimates.

    Each query resolves the pair's weak estimate (cached after the first
    request) and intersects the band interval with the trivial bounds, so
    the answer is always at least as tight as knowing nothing.  With a
    ``batcher`` (a :class:`repro.exec.BatchOracle` wrapping the *weak*
    oracle), :meth:`bounds_many` prefetches a whole frontier's estimates as
    one batch — the path the up-front bound sweep of the resolver's
    ``argmin``/``knearest`` scans hits.  Weak calls are cheap, so they are
    batched per frontier; strong calls are batched only per resolution
    wave.

    Counters: :attr:`weak_calls` mirrors the weak oracle's charged calls;
    :attr:`weak_band` counts queries whose interval was strictly tightened
    by the band (the number that flows into
    ``ResolverStats.weak_band``).

    ``lock`` serialises weak-tier mutation for multi-threaded hosts (the
    service engine queries bounds from concurrent jobs); single-threaded
    callers leave it None.
    """

    def __init__(
        self,
        graph: PartialDistanceGraph,
        weak: WeakOracle,
        max_distance: float = math.inf,
        batcher=None,
        lock=None,
    ) -> None:
        super().__init__(graph, max_distance)
        if weak.n != graph.n:
            raise ValueError(
                f"weak oracle universe ({weak.n}) does not match graph ({graph.n})"
            )
        if batcher is not None and batcher.oracle is not weak:
            raise ValueError("batcher must wrap the same WeakOracle as the provider")
        self.weak = weak
        self.batcher = batcher
        self._lock = lock if lock is not None else contextlib.nullcontext()
        self.name = f"weak[{weak.name}]"
        #: Bound queries whose interval the band strictly tightened.
        self.weak_band = 0

    @property
    def weak_calls(self) -> int:
        """Charged weak-oracle estimates so far."""
        return self.weak.calls

    def bounds(self, i: int, j: int) -> Bounds:
        trivial = self.trivial_bounds(i, j)
        if trivial.is_exact:
            return trivial
        with self._lock:
            estimate = self.weak(i, j)
        out = trivial.intersect(self.weak.band.interval(estimate))
        if out.lower > trivial.lower or out.upper < trivial.upper:
            self.weak_band += 1
        return out

    def bounds_many(self, pairs: Iterable[Tuple[int, int]]) -> List[Bounds]:
        """Batch path: prefetch unknown estimates in one weak-tier batch."""
        pairs = list(pairs)
        if self.batcher is not None:
            todo = sorted(
                {
                    canonical_pair(i, j)
                    for i, j in pairs
                    if i != j
                    and self.graph.get(i, j) is None
                    and self.weak.peek(i, j) is None
                }
            )
            if todo:
                with self._lock:
                    self.batcher.resolve_many(todo)
        return [self.bounds(i, j) for i, j in pairs]


class TieredOracle:
    """Weak+strong oracle composition satisfying the :class:`Oracle` protocol.

    Exact resolution (``__call__``/``record``/``resolve_batch``) delegates
    to the **strong** tier, so a :class:`~repro.core.resolver.SmartResolver`
    driven by the strong oracle and a :meth:`bounder`-built provider
    produces byte-identical outputs to a strong-only run.  The **weak**
    tier is consulted only through bound providers, and its calls are
    routed through a :class:`repro.exec.BatchOracle` so frontier prefetches
    go out as batches.

    Parameters
    ----------
    strong:
        The exact (expensive) oracle.
    weak:
        The banded estimator over the same universe.
    weak_executor:
        Executor for the weak tier's batcher — ``None`` (serial), an
        executor name (``"serial"``/``"threaded"``), or a ready
        :class:`~repro.exec.executor.BaseExecutor`.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when given,
        :meth:`instrument` runs at construction (the unified convention).
    """

    def __init__(
        self,
        strong: DistanceOracle,
        weak: WeakOracle,
        *,
        weak_executor=None,
        registry=None,
    ) -> None:
        if weak.n != strong.n:
            raise ValueError(
                f"weak oracle universe ({weak.n}) does not match strong ({strong.n})"
            )
        self.strong = strong
        self.weak = weak
        # Imported lazily: repro.exec imports repro.core, not the reverse.
        from repro.exec.batch_oracle import BatchOracle
        from repro.exec.executor import make_executor

        if isinstance(weak_executor, str):
            weak_executor = make_executor(weak_executor)
        self.weak_batcher = BatchOracle(weak, executor=weak_executor)
        self._providers: List[WeakBoundProvider] = []
        self.registry = registry
        if registry is not None:
            self.instrument(registry)

    # -- Oracle protocol (delegating to the strong tier) ---------------------

    @property
    def n(self) -> int:
        """Size of the object universe."""
        return self.strong.n

    @property
    def calls(self) -> int:
        """Charged *strong* calls — the paper's expensive resource."""
        return self.strong.calls

    @property
    def distance_fn(self) -> DistanceFn:
        """The strong tier's raw distance function."""
        return self.strong.distance_fn

    def __call__(self, i: int, j: int) -> float:
        """Exact distance through the strong tier."""
        return self.strong(i, j)

    def record(self, i: int, j: int, value: float) -> float:
        """Commit an externally computed exact distance to the strong tier."""
        return self.strong.record(i, j, value)

    def seed(self, i: int, j: int, value: float) -> bool:
        """Pre-fill the strong cache free of charge."""
        return self.strong.seed(i, j, value)

    def peek(self, i: int, j: int) -> Optional[float]:
        """The strong tier's cached distance, or None."""
        return self.strong.peek(i, j)

    def is_resolved(self, i: int, j: int) -> bool:
        """True when the strong tier already knows the pair."""
        return self.strong.is_resolved(i, j)

    def resolve_batch(self, pairs: Iterable[Pair]) -> list[float]:
        """Exact distances for many pairs through the strong tier."""
        return self.strong.resolve_batch(pairs)

    def stats(self) -> OracleStats:
        """The strong tier's accounting snapshot."""
        return self.strong.stats()

    def reset(self) -> None:
        """Reset both tiers' counters and caches."""
        self.strong.reset()
        self.weak.reset()

    # -- tier accounting -----------------------------------------------------

    @property
    def strong_calls(self) -> int:
        """Charged strong (exact) calls."""
        return self.strong.calls

    @property
    def weak_calls(self) -> int:
        """Charged weak (estimate) calls."""
        return self.weak.calls

    @property
    def weak_band(self) -> int:
        """Bound queries tightened by the band, across providers built here."""
        return sum(p.weak_band for p in self._providers)

    @property
    def band(self) -> WeakBand:
        """The weak tier's declared error band."""
        return self.weak.band

    # -- bound-provider factory ----------------------------------------------

    def bounder(
        self,
        graph: PartialDistanceGraph,
        base=None,
        max_distance: float = math.inf,
        lock=None,
    ):
        """A bound provider feeding weak intervals into the resolver.

        With ``base`` (an existing scheme such as Tri), returns an
        :class:`~repro.core.bounds.IntersectionBounder` of base ∩ weak —
        at least as tight as either alone on every query.  Without one,
        returns the bare :class:`WeakBoundProvider`.
        """
        provider = WeakBoundProvider(
            graph,
            self.weak,
            max_distance=max_distance,
            batcher=self.weak_batcher,
            lock=lock,
        )
        self._providers.append(provider)
        if base is None:
            return provider
        return IntersectionBounder(graph, [base, provider], max_distance)

    def attach(self, resolver, max_distance: float = math.inf):
        """Wrap ``resolver``'s current provider with the weak tier.

        Replaces ``resolver.bounder`` by base ∩ weak over the resolver's own
        graph (clearing its bound memo, as any provider swap does) and
        returns the new provider.
        """
        new = self.bounder(resolver.graph, base=resolver.bounder, max_distance=max_distance)
        resolver.bounder = new
        return new

    # -- observability -------------------------------------------------------

    def instrument(self, registry) -> None:
        """Expose tier accounting on a ``repro.obs`` metrics registry.

        Callback-backed (each tier stays the single writer of its counter),
        under names distinct from the resolver's ``repro_resolver_weak_*``
        delta-published counters so the two surfaces never double-count.
        """
        registry.counter(
            "repro_weak_oracle_calls_total",
            "Charged weak-tier (banded estimate) oracle calls.",
            fn=lambda: self.weak.calls,
        )
        registry.counter(
            "repro_strong_oracle_calls_total",
            "Charged strong-tier (exact) oracle calls.",
            fn=lambda: self.strong.calls,
        )
        registry.counter(
            "repro_weak_band_tightenings_total",
            "Bound queries strictly tightened by the weak error band.",
            fn=lambda: self.weak_band,
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down the weak tier's batch executor."""
        self.weak_batcher.close()

    def __enter__(self) -> "TieredOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
