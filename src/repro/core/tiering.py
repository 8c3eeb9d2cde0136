"""Two-tier weak/strong distance oracles: the weak tier only bounds.

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
  answers are estimates carrying a declared band (it inherits all caching
  and counting, so weak calls are metered apart from strong ones);
* :class:`WeakBoundProvider` — turns each weak estimate into a *sound*
  lower/upper interval and feeds it to the bound engine as a first-class
  :class:`~repro.core.bounds.BoundProvider`, so weak answers tighten
  :class:`~repro.core.resolver.SmartResolver` bounds and order candidate
  resolution exactly like any other scheme;
* :class:`TieredOracle` — the weak+strong pair.  It hands out bound
  providers wired to the weak tier and meters both tiers; exact
  resolution stays with the strong :class:`DistanceOracle`, which callers
  pass to the resolver themselves.

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
from typing import List

from repro.core.bounds import BaseBoundProvider, Bounds, IntersectionBounder
from repro.core.oracle import DistanceFn, DistanceOracle
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

    Subclasses :class:`DistanceOracle`, so estimates are cached and counted
    exactly like exact distances.  ``weak.calls`` is therefore the number
    of *charged weak estimates*, kept entirely separate from the strong
    tier's count.

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
    the answer is always at least as tight as knowing nothing.

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
        lock=None,
    ) -> None:
        super().__init__(graph, max_distance)
        if weak.n != graph.n:
            raise ValueError(
                f"weak oracle universe ({weak.n}) does not match graph ({graph.n})"
            )
        self.weak = weak
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


class TieredOracle:
    """Weak+strong oracle pair: bound providers from the weak tier.

    The **strong** tier resolves exact distances; callers drive a
    :class:`~repro.core.resolver.SmartResolver` with it directly.  The
    **weak** tier is consulted only through the providers :meth:`bounder`
    and :meth:`attach` build, so the resolver's outputs stay
    byte-identical to a strong-only run.

    Parameters
    ----------
    strong:
        The exact (expensive) oracle.
    weak:
        The banded estimator over the same universe.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when given,
        :meth:`instrument` runs at construction (the unified convention).
    """

    def __init__(
        self,
        strong: DistanceOracle,
        weak: WeakOracle,
        *,
        registry=None,
    ) -> None:
        if weak.n != strong.n:
            raise ValueError(
                f"weak oracle universe ({weak.n}) does not match strong ({strong.n})"
            )
        self.strong = strong
        self.weak = weak
        self._providers: List[WeakBoundProvider] = []
        self.registry = registry
        if registry is not None:
            self.instrument(registry)

    # -- tier accounting -----------------------------------------------------

    @property
    def weak_calls(self) -> int:
        """Charged weak (estimate) calls."""
        return self.weak.calls

    @property
    def weak_band(self) -> int:
        """Bound queries tightened by the band, across providers built here."""
        return sum(p.weak_band for p in self._providers)

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
        provider = WeakBoundProvider(graph, self.weak, max_distance=max_distance, lock=lock)
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

    # Kept because callers still write ``with TieredOracle(...) as tiered``.
    def __enter__(self) -> "TieredOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        pass
