"""Engine-level tests for the weak/strong oracle tier."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.service import ProximityEngine
from repro.service.server import spec_from_dict
from repro.spaces.matrix import MatrixSpace, random_metric_matrix
from repro.spaces.vector import MinkowskiSpace


@pytest.fixture
def space(rng):
    points = rng.normal(size=(30, 4))
    return MinkowskiSpace(points, p=2)


@pytest.fixture
def strong_engine(space):
    eng = ProximityEngine.for_space(space, provider="tri", job_workers=1)
    yield eng
    eng.close(snapshot=False)


@pytest.fixture
def weak_engine(space):
    eng = ProximityEngine.for_space(
        space, provider="tri", job_workers=1, weak_oracle=True
    )
    yield eng
    eng.close(snapshot=False)


class TestWeakEngineParity:
    def test_results_identical_to_strong_only(self, strong_engine, weak_engine):
        jobs = [
            ("knn", dict(query=3, k=5)),
            ("range", dict(query=7, radius=1.5)),
            ("nearest", dict(query=0)),
            ("mst", dict()),
        ]
        for kind, params in jobs:
            strong = strong_engine.submit_job(kind, **params).result(60)
            weak = weak_engine.submit_job(kind, **params).result(60)
            assert strong.ok and weak.ok
            assert weak.value == strong.value, kind

    def test_weak_tier_saves_strong_calls(self, space):
        strong_eng = ProximityEngine.for_space(space, provider="none", job_workers=1)
        weak_eng = ProximityEngine.for_space(
            space, provider="none", job_workers=1, weak_oracle=True
        )
        try:
            for eng in (strong_eng, weak_eng):
                eng.submit_job("knng", k=4).result(120)
            baseline = strong_eng.snapshot_stats().oracle_calls
            tiered = weak_eng.snapshot_stats().oracle_calls
            assert tiered < baseline
        finally:
            strong_eng.close(snapshot=False)
            weak_eng.close(snapshot=False)


class TestWeakStats:
    def test_snapshot_and_metrics_carry_weak_counters(self, weak_engine):
        weak_engine.submit_job("knn", query=2, k=5).result(60)
        stats = weak_engine.snapshot_stats()
        assert stats.weak_calls > 0
        assert stats.resolver.weak_calls == stats.weak_calls
        assert stats.weak_band >= 0
        text = weak_engine.render_metrics()
        assert "repro_resolver_weak_calls_total" in text
        assert "repro_resolver_weak_band_total" in text

    def test_strong_only_engine_reports_zero_weak(self, strong_engine):
        strong_engine.submit_job("knn", query=2, k=5).result(60)
        stats = strong_engine.snapshot_stats()
        assert stats.weak_calls == 0
        assert stats.weak_band == 0


class TestWeakConfiguration:
    def test_space_without_weak_oracle_rejected(self, rng):
        space = MatrixSpace(random_metric_matrix(10, rng))
        with pytest.raises(ConfigurationError):
            ProximityEngine.for_space(space, weak_oracle=True)

    def test_explicit_weak_oracle_instance_accepted(self, space):
        weak = space.weak_oracle()
        eng = ProximityEngine.for_space(space, provider="tri", weak_oracle=weak)
        try:
            assert eng.tiered is not None
            assert eng.tiered.weak is weak
        finally:
            eng.close(snapshot=False)


class TestSpecWire:
    def test_spec_from_dict_ignores_retired_use_weak_key(self):
        # Clients that still send the retired per-job opt-out keep working.
        spec = spec_from_dict({"kind": "medoid", "use_weak": False})
        assert spec == spec_from_dict({"kind": "medoid"})
