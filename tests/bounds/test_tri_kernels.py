"""Scalar-vs-vector Tri kernel equivalence and relaxed-bound correctness."""

import itertools

import pytest

from repro.bounds import kernels
from repro.bounds.tri import TriScheme
from repro.core.resolver import SmartResolver
from repro.spaces.matrix import MatrixSpace, random_metric_matrix
from repro.spaces.vector import SquaredEuclideanSpace


def brute_force_tri_bounds(graph, i, j, c, cap):
    """Reference reduction straight from the relaxed triangle inequality."""
    lb, ub = 0.0, cap
    for w in set(graph.adjacency_list(i)) & set(graph.adjacency_list(j)):
        diw = graph.weight(i, w)
        djw = graph.weight(j, w)
        lb = max(lb, diw / c - djw, djw / c - diw)
        ub = min(ub, c * (diw + djw))
    return lb, min(ub, cap)


@pytest.fixture
def warmed(rng):
    """A Tri provider over a random metric with ~60% of pairs resolved."""
    matrix = random_metric_matrix(18, rng)
    space = MatrixSpace(matrix)
    resolver = SmartResolver(space.oracle())
    tri = TriScheme(resolver.graph, space.diameter_bound())
    resolver.bounder = tri
    for i, j in itertools.combinations(range(18), 2):
        if rng.random() < 0.6:
            resolver.distance(i, j)
    return tri, resolver.graph


class TestKernelEquivalence:
    def test_scalar_equals_vector_everywhere(self, warmed):
        tri, graph = warmed
        for i, j in itertools.combinations(range(18), 2):
            if graph.get(i, j) is not None:
                continue
            loop = tri._bounds_loop(i, j)
            vec = tri._bounds_vector(i, j)
            assert loop.lower == vec.lower  # bit-identical, not approx
            assert loop.upper == vec.upper

    def test_bounds_many_equals_per_pair(self, warmed):
        tri, _ = warmed
        pairs = list(itertools.combinations(range(18), 2))
        batch = tri.bounds_many(pairs)
        for (i, j), b in zip(pairs, batch):
            assert b == tri.bounds(i, j)

    def test_triangle_counter_identical_across_kernels(self, warmed):
        tri, graph = warmed
        pairs = [
            (i, j)
            for i, j in itertools.combinations(range(18), 2)
            if graph.get(i, j) is None
        ]
        loop_counter = TriScheme(graph, tri.max_distance)
        vec_counter = TriScheme(graph, tri.max_distance)
        for i, j in pairs:
            loop_counter._bounds_loop(i, j)
            vec_counter._bounds_vector(i, j)
        assert loop_counter.triangles_inspected == vec_counter.triangles_inspected
        assert loop_counter.triangles_inspected > 0


class TestFrontierSweep:
    @pytest.mark.parametrize("relaxation", [1.0, 2.0])
    def test_both_sweep_orders_equal_per_pair(self, rng, monkeypatch, relaxation):
        """Every ``u``'s unknown pairs as one batch, against per-pair bounds.

        Per-node resolve rates spread the degrees, so some frontiers take
        the candidate-major order and some the neighbour-major one.
        """
        n = 40
        matrix = random_metric_matrix(n, rng)
        resolver = SmartResolver(MatrixSpace(matrix).oracle())
        rate = rng.uniform(0.1, 1.0, size=n)
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < rate[i] * rate[j]:
                resolver.distance(i, j)
        graph = resolver.graph
        tri = TriScheme(graph, float(matrix.max()), relaxation=relaxation)
        orders = {"frontier": 0, "neighbour": 0}
        sweep, neighbour_sweep = kernels.tri_frontier, kernels._tri_frontier_nbr

        def counted(key, fn):
            def wrapper(*args):
                orders[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(kernels, "tri_frontier", counted("frontier", sweep))
        monkeypatch.setattr(
            kernels, "_tri_frontier_nbr", counted("neighbour", neighbour_sweep)
        )
        for u in range(n):
            frontier = [(u, c) for c in range(n) if c != u and graph.get(u, c) is None]
            before = tri.triangles_inspected
            batch = tri.bounds_many(frontier)
            swept = tri.triangles_inspected - before
            assert batch == [tri._bounds_loop(i, j) for i, j in frontier]
            assert tri.triangles_inspected - before == 2 * swept
        assert 0 < orders["neighbour"] < orders["frontier"]


class TestRelaxedKernels:
    @pytest.fixture
    def relaxed(self, rng):
        pts = rng.uniform(0, 1, size=(16, 2))
        space = SquaredEuclideanSpace(pts)
        resolver = SmartResolver(space.oracle())
        tri = TriScheme(resolver.graph, space.diameter_bound(), relaxation=2.0)
        resolver.bounder = tri
        for i, j in itertools.combinations(range(16), 2):
            if rng.random() < 0.55:
                resolver.distance(i, j)
        return space, tri, resolver.graph

    def test_relaxed_matches_brute_force(self, relaxed):
        space, tri, graph = relaxed
        for i, j in itertools.combinations(range(16), 2):
            if graph.get(i, j) is not None:
                continue
            lb, ub = brute_force_tri_bounds(graph, i, j, 2.0, tri.max_distance)
            lb = max(lb, 0.0)
            if lb > ub:
                lb = ub
            b = tri.bounds(i, j)
            assert b.lower == pytest.approx(lb, abs=1e-12)
            assert b.upper == pytest.approx(ub, abs=1e-12)

    def test_relaxed_bounds_contain_truth(self, relaxed):
        space, tri, graph = relaxed
        for i, j in itertools.combinations(range(16), 2):
            truth = space.distance(i, j)
            b = tri.bounds(i, j)
            assert b.lower - 1e-9 <= truth <= b.upper + 1e-9

    def test_relaxed_scalar_equals_vector(self, relaxed):
        _, tri, graph = relaxed
        for i, j in itertools.combinations(range(16), 2):
            if graph.get(i, j) is not None:
                continue
            assert tri._bounds_loop(i, j) == tri._bounds_vector(i, j)

    def test_relaxed_bounds_many_equals_per_pair(self, relaxed):
        _, tri, _ = relaxed
        pairs = list(itertools.combinations(range(16), 2))
        for (i, j), b in zip(pairs, tri.bounds_many(pairs)):
            assert b == tri.bounds(i, j)
