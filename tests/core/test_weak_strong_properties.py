"""Property-based tests (hypothesis) for the weak/strong oracle tier.

The tier's two load-bearing guarantees:

* any weak answer inside its declared error band yields a valid interval —
  the band-scaled bounds always contain the true distance;
* a tiered run is *output-identical* to a strong-only run on every
  workload, because weak answers only ever tighten bounds.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import pam
from repro.algorithms.queries import k_nearest, range_query
from repro.core.partial_graph import PartialDistanceGraph
from repro.core.resolver import SmartResolver
from repro.core.tiering import TieredOracle, WeakBand, WeakBoundProvider, WeakOracle
from repro.spaces.matrix import MatrixSpace, random_metric_matrix

COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def banded_estimates(draw):
    """A true distance, a legal band, and an estimate inside that band."""
    truth = draw(st.floats(0.0, 1e6, allow_nan=False))
    lo = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.5)))
    hi = draw(st.one_of(st.floats(max(lo, 1e-3), 4.0), st.just(math.inf)))
    # In-band means lo·e ≤ truth ≤ hi·e, i.e. e ∈ [truth/hi, truth/lo].
    e_min = 0.0 if math.isinf(hi) else truth / hi
    e_max = truth * 10.0 if lo == 0.0 else truth / lo
    t = draw(st.floats(0.0, 1.0))
    estimate = e_min + t * (max(e_max, e_min) - e_min)
    return truth, WeakBand(lo, hi), estimate


@st.composite
def tiered_instances(draw, min_n=4, max_n=12):
    """A random metric plus an in-band synthetic weak oracle for it."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = random_metric_matrix(n, rng)
    lo = draw(st.floats(0.5, 1.2))
    hi = draw(st.one_of(st.floats(1.3, 3.0), st.just(math.inf)))
    # Multiplicative noise u ∈ [1/hi, 1/lo] keeps every estimate in band
    # (nudged inward so float round-trips through the band stay sound).
    u_min = (1.0 / hi if not math.isinf(hi) else 0.0) * 1.001
    u_max = (1.0 / lo) * 0.999
    noise = np.random.default_rng(seed + 7).uniform(u_min, u_max, size=(n, n))
    estimates = matrix * (noise + noise.T) / 2.0
    weak = WeakOracle(
        lambda i, j: float(estimates[i, j]), n, WeakBand(lo, hi), name="synthetic"
    )
    return matrix, weak


class TestBandSoundness:
    @given(banded_estimates())
    @settings(**COMMON_SETTINGS)
    def test_in_band_estimate_yields_valid_bounds(self, case):
        truth, band, estimate = case
        bounds = band.interval(estimate)
        assert bounds.lower <= bounds.upper
        assert bounds.contains(truth, tol=1e-6 * max(1.0, truth))

    @given(tiered_instances())
    @settings(**COMMON_SETTINGS)
    def test_weak_provider_bounds_contain_truth(self, instance):
        matrix, weak = instance
        n = matrix.shape[0]
        provider = WeakBoundProvider(
            PartialDistanceGraph(n), weak, max_distance=float(matrix.max())
        )
        for i in range(n):
            for j in range(i + 1, n):
                truth = float(matrix[i, j])
                b = provider.bounds(i, j)
                assert b.contains(truth, tol=1e-6 * max(1.0, truth)), (
                    weak.band,
                    (i, j),
                    truth,
                    b,
                )


def _run_workloads(resolver, n, seed):
    """The knn / range / medoid battery, deterministically parameterised."""
    rng = np.random.default_rng(seed)
    query = int(rng.integers(n))
    radius = float(rng.uniform(0.1, 1.0))
    k = int(rng.integers(1, n))
    knn = k_nearest(resolver, query, k)
    rq = range_query(resolver, query, radius)
    medoid = pam(resolver, l=min(2, n - 1), seed=int(seed % 1000))
    return knn, rq, (medoid.medoids, medoid.assignment, medoid.cost)


class TestTieredIdentity:
    @given(tiered_instances(), st.integers(0, 2**31 - 1))
    @settings(**COMMON_SETTINGS)
    def test_tiered_matches_strong_only(self, instance, workload_seed):
        matrix, weak = instance
        n = matrix.shape[0]
        space = MatrixSpace(matrix, validate=False)

        strong_only = SmartResolver(space.oracle())
        baseline = _run_workloads(strong_only, n, workload_seed)
        baseline_calls = strong_only.oracle.calls

        oracle = space.oracle()
        tiered = TieredOracle(oracle, weak)
        resolver = SmartResolver(oracle)
        tiered.attach(resolver, max_distance=float(matrix.max()))
        answers = _run_workloads(resolver, n, workload_seed)

        assert answers == baseline
        assert oracle.calls <= baseline_calls
        stats = resolver.collect_stats()
        assert stats.strong_calls == oracle.calls
        assert stats.weak_calls == tiered.weak_calls
