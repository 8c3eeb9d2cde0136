"""Unit tests for landmark selection and the bootstrap routine."""


import numpy as np
import pytest

from repro.bounds.landmarks import (
    bootstrap_with_landmarks,
    default_num_landmarks,
    resolve_landmark_matrix,
    select_landmarks_maxmin,
)
from repro.core.resolver import SmartResolver
from repro.dynamic import DynamicObjectSet
from repro.spaces.matrix import MatrixSpace, random_metric_matrix
from repro.spaces.vector import EuclideanSpace


class TestDefaultNumLandmarks:
    def test_log2_rule(self):
        assert default_num_landmarks(1024) == 10
        assert default_num_landmarks(128) == 7

    def test_multiplier(self):
        assert default_num_landmarks(1024, multiplier=3) == 30

    def test_minimum_one(self):
        assert default_num_landmarks(1) == 1
        assert default_num_landmarks(2) == 1


class TestMaxminSelection:
    def test_first_is_seed(self, rng):
        space = MatrixSpace(random_metric_matrix(12, rng))
        r = SmartResolver(space.oracle())
        landmarks = select_landmarks_maxmin(r, 4)
        assert landmarks[0] == 0
        assert len(set(landmarks)) == 4

    def test_second_is_farthest_from_first(self, rng):
        matrix = random_metric_matrix(12, rng)
        space = MatrixSpace(matrix)
        r = SmartResolver(space.oracle())
        landmarks = select_landmarks_maxmin(r, 2)
        assert landmarks[1] == int(np.argmax(matrix[0]))

    def test_spread_on_line(self):
        # Points on a line: maxmin landmarks hit the extremes first.
        pts = np.linspace(0, 1, 11).reshape(-1, 1)
        space = EuclideanSpace(pts)
        r = SmartResolver(space.oracle())
        landmarks = select_landmarks_maxmin(r, 3)
        assert landmarks[:2] == [0, 10]
        assert landmarks[2] == 5  # midpoint maximises min-distance

    def test_invalid_count_rejected(self, rng):
        space = MatrixSpace(random_metric_matrix(5, rng))
        r = SmartResolver(space.oracle())
        with pytest.raises(ValueError):
            select_landmarks_maxmin(r, 0)
        with pytest.raises(ValueError):
            select_landmarks_maxmin(r, 6)

    def test_live_candidates_skip_tombstones(self):
        space = MatrixSpace(random_metric_matrix(24, np.random.default_rng(11)))
        r = SmartResolver(space.oracle())
        full = select_landmarks_maxmin(r, 6)
        # Pinned: the full-universe pick and its cost stay as they were.
        assert full == [0, 17, 16, 8, 21, 11]
        assert r.oracle.calls == 105
        # Tombstone every landmark but the seed: the live-id pick must
        # neither probe nor return a dead id (the dynamic set raises on
        # any distance that touches one).
        objects = DynamicObjectSet.wrap(space)
        for dead in full[1:]:
            objects.remove(dead)
        live = objects.alive_ids()
        r = SmartResolver(objects.oracle())
        landmarks = select_landmarks_maxmin(r, 6, live)
        assert len(set(landmarks)) == 6
        assert set(landmarks) <= set(live)


class TestResolveMatrix:
    def test_matrix_matches_space(self, rng):
        matrix = random_metric_matrix(10, rng)
        space = MatrixSpace(matrix)
        r = SmartResolver(space.oracle())
        landmarks = [0, 4, 7]
        lm = resolve_landmark_matrix(r, landmarks)
        assert lm.shape == (3, 10)
        for row, landmark in enumerate(landmarks):
            assert np.allclose(lm[row], matrix[landmark])

    def test_edges_recorded_in_graph(self, rng):
        space = MatrixSpace(random_metric_matrix(10, rng))
        r = SmartResolver(space.oracle())
        resolve_landmark_matrix(r, [2])
        assert r.graph.degree(2) == 9


class TestBootstrap:
    def test_call_budget(self, rng):
        space = MatrixSpace(random_metric_matrix(32, rng))
        oracle = space.oracle()
        r = SmartResolver(oracle)
        landmarks = bootstrap_with_landmarks(r, 5)
        assert len(landmarks) == 5
        # Every landmark row resolved; selection itself reuses those calls.
        expected_edges = 5 * 31 - (5 * 4) // 2  # union of 5 stars
        assert r.graph.num_edges == expected_edges
        assert oracle.calls == expected_edges

    def test_defaults_to_log2(self, rng):
        space = MatrixSpace(random_metric_matrix(32, rng))
        r = SmartResolver(space.oracle())
        landmarks = bootstrap_with_landmarks(r)
        assert len(landmarks) == default_num_landmarks(32)

    def test_count_capped_at_n(self, rng):
        space = MatrixSpace(random_metric_matrix(4, rng))
        r = SmartResolver(space.oracle())
        landmarks = bootstrap_with_landmarks(r, 100)
        assert len(landmarks) == 4
