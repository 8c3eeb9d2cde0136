"""Tests for provider-maintenance dispatch across mutation batches."""

import pytest

from repro.bounds import Aesa, Laesa, Splub, TriScheme
from repro.core.bounds import IntersectionBounder
from repro.core.exceptions import ConfigurationError
from repro.core.resolver import SmartResolver
from repro.dynamic import MUTABLE_PROVIDERS, apply_provider_mutations
from repro.spaces.matrix import MatrixSpace, random_metric_matrix


@pytest.fixture
def space(rng):
    return MatrixSpace(random_metric_matrix(20, rng))


@pytest.fixture
def resolver(space):
    return SmartResolver(space.oracle())


class TestDispatch:
    def test_stateless_providers_are_noops(self, resolver):
        tri = TriScheme(resolver.graph, 10.0)
        assert apply_provider_mutations(tri, [3], [7]) == {}

    def test_unpatchable_provider_rejected(self, resolver):
        aesa = Aesa(resolver.graph, 10.0)
        with pytest.raises(ConfigurationError, match="does not support"):
            apply_provider_mutations(aesa, [3], [7])

    def test_mutable_provider_names_are_buildable(self):
        assert MUTABLE_PROVIDERS == {"none", "tri", "splub", "laesa"}

    def test_intersection_fans_out_and_merges(self, space, resolver):
        splub = Splub(resolver.graph, space.diameter_bound())
        tri = TriScheme(resolver.graph, space.diameter_bound())
        both = IntersectionBounder(resolver.graph, [tri, splub])
        # Warm a tree so SPLUB has state to patch.
        resolver.bounder = both
        resolver.distance(0, 1)
        splub.bounds(0, 5)
        counters = apply_provider_mutations(both, [], [0])
        assert counters.get("splub_trees_dropped", 0) >= 1


class TestSplubMaintenance:
    def test_trees_at_mutated_sources_dropped_rest_patched(self, space, resolver):
        splub = Splub(resolver.graph, space.diameter_bound())
        resolver.bounder = splub
        for pair in [(0, 1), (1, 2), (2, 3), (0, 4)]:
            resolver.distance(*pair)
        splub.bounds(0, 9)  # tree sourced at 0
        splub.bounds(2, 9)  # tree sourced at 2
        counters = splub.apply_mutations([], [0])
        assert counters["splub_trees_dropped"] == 1
        assert counters["splub_trees_patched"] >= 1
        # Patched survivor serves a sound bound with the dead id masked.
        bounds = splub.bounds(2, 3)
        assert bounds.upper >= space.distance(2, 3)


class TestLaesaMaintenance:
    def test_insert_refills_columns_via_resolver(self, space, resolver):
        laesa = Laesa(resolver.graph, space.diameter_bound(), num_landmarks=3)
        laesa.bootstrap(resolver)
        # A recycled insert arrives with its graph edges and cached
        # distances purged (the engine does both before maintenance).
        resolver.graph.remove_node(7)
        resolver.graph.revive(7)
        resolver.oracle.forget(7)
        before = resolver.oracle.calls
        counters = laesa.apply_mutations([7], [], resolver=resolver)
        assert counters["landmark_cols_refilled"] == 1
        # One strong call per surviving landmark.
        assert resolver.oracle.calls - before == len(laesa.landmarks)

    def test_insert_without_resolver_rejected(self, space, resolver):
        laesa = Laesa(resolver.graph, space.diameter_bound(), num_landmarks=3)
        laesa.bootstrap(resolver)
        with pytest.raises(ValueError, match="resolver"):
            laesa.apply_mutations([7], [])

    def test_removed_landmark_drops_its_row(self, space, resolver):
        laesa = Laesa(resolver.graph, space.diameter_bound(), num_landmarks=4)
        laesa.bootstrap(resolver)
        victim = laesa.landmarks[0]
        counters = laesa.apply_mutations([], [victim], resolver=resolver)
        assert counters["landmark_rows_dropped"] == 1
        assert victim not in laesa.landmarks

    def test_heavy_drift_reselects_landmarks(self, space, resolver):
        graph = resolver.graph
        laesa = Laesa(graph, space.diameter_bound(), num_landmarks=3)
        laesa.bootstrap(resolver)
        laesa.drift_threshold = 0.1
        removed = [i for i in range(10) if i not in laesa.landmarks][:5]
        for obj in removed:
            graph.remove_node(obj)
        counters = laesa.apply_mutations([], removed, resolver=resolver)
        assert counters["landmark_reselections"] == 1
        assert all(graph.is_alive(lm) for lm in laesa.landmarks)
