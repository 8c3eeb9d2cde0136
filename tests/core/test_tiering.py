"""Unit tests for the weak/strong tiered oracle surface."""

import math

import pytest

from repro.algorithms import knn_graph
from repro.core.bounds import IntersectionBounder, TrivialBounder
from repro.core.oracle import DistanceOracle
from repro.core.partial_graph import PartialDistanceGraph
from repro.core.resolver import SmartResolver
from repro.core.tiering import TieredOracle, WeakBand, WeakBoundProvider, WeakOracle
from repro.datasets import sf_poi_space
from repro.exec.batch_oracle import BatchOracle
from repro.obs import MetricsRegistry


def manhattan_1d(i, j):
    return float(abs(i - j))


def half_manhattan(i, j):
    return 0.5 * abs(i - j)


def make_weak(n=10, band=(1.0, 2.0)):
    return WeakOracle(half_manhattan, n, band, name="half")


class TestWeakBand:
    def test_interval_scales_estimate(self):
        band = WeakBand(0.5, 2.0)
        b = band.interval(4.0)
        assert (b.lower, b.upper) == (2.0, 8.0)

    def test_zero_estimate_under_infinite_hi_is_not_nan(self):
        b = WeakBand(1.0, math.inf).interval(0.0)
        assert b.lower == 0.0
        assert b.upper == math.inf

    def test_lo_factor_above_one_is_legal(self):
        # A road network with detour >= 1.2 systematically under-estimates.
        b = WeakBand(1.2, math.inf).interval(10.0)
        assert b.lower == pytest.approx(12.0)

    def test_invalid_bands_rejected(self):
        with pytest.raises(ValueError):
            WeakBand(-0.1, 2.0)
        with pytest.raises(ValueError):
            WeakBand(2.0, 1.0)
        with pytest.raises(ValueError):
            WeakBand(math.inf, math.inf)

    def test_negative_estimate_rejected(self):
        with pytest.raises(ValueError):
            WeakBand(1.0, 2.0).interval(-1.0)

    def test_tuple_coercion(self):
        weak = WeakOracle(half_manhattan, 5, (1.0, 3.0))
        assert weak.band == WeakBand(1.0, 3.0)


class TestWeakOracle:
    def test_counts_separately_from_strong(self):
        strong = DistanceOracle(manhattan_1d, 10)
        weak = make_weak()
        weak(0, 4)
        weak(0, 4)  # cached
        assert weak.calls == 1
        assert strong.calls == 0

    def test_interval_contains_truth(self):
        weak = make_weak()  # estimate = d/2, band (1, 2) -> [d/2, d]
        b = weak.interval(0, 8)
        assert b.lower == pytest.approx(4.0)
        assert b.upper == pytest.approx(8.0)
        assert b.contains(manhattan_1d(0, 8))

    def test_self_pair_interval_is_exact_zero(self):
        b = make_weak().interval(3, 3)
        assert (b.lower, b.upper) == (0.0, 0.0)


class TestWeakBoundProvider:
    def test_bounds_intersect_band_with_trivial(self):
        graph = PartialDistanceGraph(10)
        provider = WeakBoundProvider(graph, make_weak(), max_distance=9.0)
        b = provider.bounds(0, 8)
        assert b.lower == pytest.approx(4.0)
        assert b.upper == pytest.approx(8.0)
        assert provider.weak_band == 1
        assert provider.weak_calls == 1

    def test_known_edges_stay_exact(self):
        graph = PartialDistanceGraph(10)
        graph.add_edge(0, 8, 8.0)
        weak = make_weak()
        provider = WeakBoundProvider(graph, weak)
        b = provider.bounds(0, 8)
        assert b.is_exact
        assert weak.calls == 0  # exact answers never consult the weak tier

    def test_bounds_many_matches_per_pair_bounds(self):
        weak = make_weak()
        provider = WeakBoundProvider(PartialDistanceGraph(10), weak)
        reference = WeakBoundProvider(PartialDistanceGraph(10), make_weak())
        pairs = [(0, 5), (1, 7), (2, 9), (3, 3)]
        results = provider.bounds_many(pairs)
        assert results == [reference.bounds(i, j) for i, j in pairs]
        for (i, j), b in zip(pairs, results):
            assert b.contains(manhattan_1d(i, j))
        assert weak.calls == 3  # the self-pair is free

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WeakBoundProvider(PartialDistanceGraph(5), make_weak(n=6))


class TestTieredOracle:
    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TieredOracle(DistanceOracle(manhattan_1d, 5), make_weak(n=6))

    def test_bounder_composes_with_base(self):
        strong = DistanceOracle(manhattan_1d, 10)
        with TieredOracle(strong, make_weak()) as tiered:
            graph = PartialDistanceGraph(10)
            base = TrivialBounder(graph)
            bounder = tiered.bounder(graph, base=base, max_distance=9.0)
            assert isinstance(bounder, IntersectionBounder)
            b = bounder.bounds(0, 8)
            assert b.lower == pytest.approx(4.0)
            assert bounder.weak_calls == 1
            assert bounder.weak_band == tiered.weak_band == 1

    def test_attach_wraps_resolver_bounder(self):
        strong = DistanceOracle(manhattan_1d, 10)
        with TieredOracle(strong, make_weak()) as tiered:
            resolver = SmartResolver(strong)
            tiered.attach(resolver, max_distance=9.0)
            # decide_less(0-1 vs 0-9) is now conclusive from weak bounds
            # alone: ub(0,1)=1 < lb(0,9)=4.5.
            assert resolver.less((0, 1), (0, 9)) is True
            assert strong.calls == 0
            stats = resolver.collect_stats()
            assert stats.weak_calls == tiered.weak_calls > 0
            assert stats.strong_calls == 0

    def test_strong_fallback_on_inconclusive_bounds(self):
        strong = DistanceOracle(manhattan_1d, 10)
        with TieredOracle(strong, make_weak()) as tiered:
            resolver = SmartResolver(strong)
            tiered.attach(resolver, max_distance=9.0)
            # Overlapping weak intervals: [3, 6] vs [2.5, 5] — inconclusive,
            # so the strong tier must settle it, and the verdict is exact.
            assert resolver.less((0, 6), (0, 5)) is False
            assert strong.calls > 0
            assert resolver.collect_stats().strong_calls == strong.calls

    def test_knn_graph_answer_and_tier_counts(self):
        # Pinned on a 16-point road metric: the weak tier estimates every
        # pair once and the strong tier pays 33 of the 120 pairs.
        space = sf_poi_space(n=16, road=True)
        strong = space.oracle()
        with TieredOracle(strong, space.weak_oracle()) as tiered:
            resolver = SmartResolver(strong)
            tiered.attach(resolver, max_distance=space.diameter_bound())
            result = knn_graph(resolver, k=3)
            counts = (strong.calls, tiered.weak_calls, tiered.weak_band)
        assert [[i for _, i in row] for row in result.neighbors] == [
            [2, 14, 15], [4, 10, 13], [0, 15, 14], [11, 7, 6],
            [10, 1, 8], [7, 3, 11], [12, 11, 3], [5, 3, 11],
            [13, 15, 14], [12, 6, 11], [4, 1, 13], [6, 12, 3],
            [6, 11, 3], [8, 15, 10], [15, 8, 2], [14, 8, 13],
        ]
        assert counts == (33, 120, 362)
        assert result == knn_graph(SmartResolver(space.oracle()), k=3)


class TestInstrumentConvention:
    """Every instrumentable object: ``registry=`` kwarg + ``instrument()``."""

    def test_all_surfaces_accept_registry_kwarg(self):
        strong = DistanceOracle(manhattan_1d, 10)
        registry = MetricsRegistry()
        resolver = SmartResolver(strong, registry=registry)
        assert resolver.registry is registry
        graph = PartialDistanceGraph(10, registry=MetricsRegistry())
        assert graph.n == 10
        batcher = BatchOracle(DistanceOracle(manhattan_1d, 10), registry=MetricsRegistry())
        batcher.close()
        with TieredOracle(
            DistanceOracle(manhattan_1d, 10), make_weak(), registry=MetricsRegistry()
        ) as tiered:
            assert tiered.registry is not None

    def test_instrument_methods_publish(self):
        registry = MetricsRegistry()
        strong = DistanceOracle(manhattan_1d, 10)
        weak = make_weak()
        with TieredOracle(strong, weak) as tiered:
            tiered.instrument(registry)
            strong(0, 4)
            weak(0, 2)
            snapshot = registry.snapshot()
            assert snapshot["repro_strong_oracle_calls_total"] == 1
            assert snapshot["repro_weak_oracle_calls_total"] == 1
            assert "repro_weak_band_tightenings_total" in snapshot

    def test_instrument_is_uniform_across_objects(self):
        strong = DistanceOracle(manhattan_1d, 10)
        objects = [
            SmartResolver(strong),
            PartialDistanceGraph(10),
            BatchOracle(DistanceOracle(manhattan_1d, 10)),
            TieredOracle(DistanceOracle(manhattan_1d, 10), make_weak()),
        ]
        for obj in objects:
            registry = MetricsRegistry()
            obj.instrument(registry)
            assert registry.snapshot(), f"{type(obj).__name__} published nothing"
