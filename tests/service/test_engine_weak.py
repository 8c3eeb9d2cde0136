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


class TestUseWeakOptOut:
    def test_opt_out_job_never_consults_weak_tier(self, space):
        eng = ProximityEngine.for_space(
            space, provider="tri", job_workers=1, weak_oracle=True
        )
        try:
            result = eng.submit_job("knn", query=4, k=5, use_weak=False).result(60)
            assert result.ok
            assert eng.snapshot_stats().weak_calls == 0
        finally:
            eng.close(snapshot=False)

    def test_opt_out_matches_opt_in_answers(self, weak_engine):
        opt_in = weak_engine.submit_job("range", query=1, radius=2.0).result(60)
        opt_out = weak_engine.submit_job(
            "range", query=1, radius=2.0, use_weak=False
        ).result(60)
        assert opt_in.value == opt_out.value

    def test_use_weak_ignored_without_weak_oracle(self, strong_engine):
        result = strong_engine.submit_job("knn", query=2, k=3, use_weak=True).result(60)
        assert result.ok


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
    def test_spec_from_dict_parses_use_weak(self):
        spec = spec_from_dict({"kind": "medoid", "use_weak": False})
        assert spec.use_weak is False
        assert spec_from_dict({"kind": "medoid"}).use_weak is True
