"""build_index / search_index jobs: engine, server ops, persistence, shards."""

import json

import pytest

from repro.bounds import TriScheme
from repro.core.resolver import SmartResolver
from repro.graphs import build_hnsw, graph_search
from repro.service import JobSpec, JobStatus, ProximityEngine
from repro.service.server import dispatch
from repro.spaces.matrix import MatrixSpace, random_metric_matrix


@pytest.fixture
def space(rng):
    return MatrixSpace(random_metric_matrix(30, rng))


@pytest.fixture
def engine(space):
    eng = ProximityEngine.for_space(space, provider="tri", job_workers=2)
    yield eng
    eng.close(snapshot=False)


def _built(engine, **params):
    params.setdefault("graph", "hnsw")
    result = engine.submit_job("build_index", **params).result(60)
    assert result.ok, result.error
    return result


class TestBuildIndexJob:
    def test_build_hnsw_matches_offline_builder(self, engine, space):
        result = _built(engine, m=4, ef=12, seed=2)
        assert result.value["kind"] == "hnsw"
        assert result.value["name"] == "hnsw"
        assert result.value["nodes"] == space.n
        resolver = SmartResolver(space.oracle())
        resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
        offline = build_hnsw(resolver, m=4, ef_construction=12, seed=2)
        assert engine.indexes["hnsw"].edges_signature() == offline.edges_signature()

    def test_build_nsg_and_custom_name(self, engine):
        result = _built(engine, graph="nsg", r=4, k=8, name="flat")
        assert result.value["name"] == "flat"
        assert engine.indexes["flat"].kind == "nsg"

    def test_unknown_graph_kind_fails_the_job(self, engine):
        result = engine.submit_job("build_index", graph="kdtree").result(60)
        assert result.status is JobStatus.FAILED
        assert "kdtree" in result.error

    def test_graph_param_is_required(self, engine):
        with pytest.raises(ValueError):
            JobSpec(kind="build_index")

    def test_rebuild_on_warm_engine_is_free(self, engine):
        first = _built(engine, m=4, ef=12, seed=2)
        assert first.charged_calls > 0
        again = _built(engine, m=4, ef=12, seed=2, name="warm")
        assert again.charged_calls == 0
        assert again.warm_resolutions > 0


class TestSearchIndexJob:
    def test_numeric_search_matches_direct_graph_search(self, engine, space):
        _built(engine, m=4, ef=12, seed=2)
        result = engine.submit_job("search_index", query=5, k=4).result(60)
        assert result.ok
        resolver = SmartResolver(space.oracle())
        resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
        expected = graph_search(resolver, engine.indexes["hnsw"], 5, 4)
        assert result.value == expected

    def test_comparison_mode_returns_ids_only(self, engine):
        _built(engine, m=4, ef=12, seed=2)
        numeric = engine.submit_job("search_index", query=7, k=4).result(60)
        ordinal = engine.submit_job(
            "search_index", query=7, k=4, mode="comparison"
        ).result(60)
        assert ordinal.ok
        assert ordinal.value["ids"] == [v for _, v in numeric.value]
        assert ordinal.value["comparisons"] > 0
        assert "distances" not in ordinal.value

    def test_single_index_fallback_and_named_lookup(self, engine):
        _built(engine, graph="nsg", r=4, k=8, name="only")
        unnamed = engine.submit_job("search_index", query=2, k=3).result(60)
        named = engine.submit_job("search_index", query=2, k=3, name="only").result(60)
        assert unnamed.ok and named.ok
        assert unnamed.value == named.value

    def test_missing_index_fails_with_guidance(self, engine):
        result = engine.submit_job("search_index", query=2, k=3).result(60)
        assert result.status is JobStatus.FAILED
        assert "build_index" in result.error

    def test_metrics_surface_builds_searches_and_comparisons(self, engine):
        _built(engine, m=4, ef=12, seed=2)
        engine.submit_job("search_index", query=1, k=3).result(60)
        engine.submit_job("search_index", query=1, k=3, mode="comparison").result(60)
        text = engine.render_metrics()
        assert 'repro_indexes_built_total{kind="hnsw"} 1' in text
        assert "repro_index_searches_total 2" in text
        assert "repro_indexes_stored 1" in text
        comparison_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_comparison_calls_total")
        ]
        assert comparison_lines and int(comparison_lines[0].split()[-1]) > 0


class TestPersistence:
    def test_snapshot_restores_built_indexes(self, engine, space, tmp_path):
        _built(engine, m=4, ef=12, seed=2, name="keep")
        path = str(tmp_path / "snap.npz")
        engine.snapshot(path)

        other = ProximityEngine.for_space(space, provider="tri", job_workers=1)
        try:
            other.restore(path)
            assert other.indexes["keep"].edges_signature() == (
                engine.indexes["keep"].edges_signature()
            )
            # A restored graph serves searches without rebuilding.
            found = other.submit_job("search_index", query=3, k=3, name="keep").result(60)
            assert found.ok and len(found.value) == 3
        finally:
            other.close(snapshot=False)


class TestShardedRouting:
    @pytest.fixture(scope="class")
    def sharded(self):
        from repro.datasets.facades import flickr_space
        from repro.service import ShardedEngine
        from repro.spaces.handles import handle_for

        engine = ShardedEngine(
            handle_for(flickr_space, n=40, dim=5, seed=13),
            num_shards=2,
            provider="tri",
        )
        yield engine
        engine.close()

    def test_sticky_owner_routing_end_to_end(self, sharded, tmp_path_factory):
        # Round-robin ownership: two builds land on two different shards.
        for name, graph in (("a", "hnsw"), ("b", "nsg")):
            params = {"graph": graph, "name": name}
            if graph == "hnsw":
                params.update(m=4, ef=12)
            else:
                params.update(r=4, k=8)
            result = sharded.run(JobSpec(kind="build_index", params=params))
            assert result.ok, result.error
        listing = sharded.handle_request({"op": "indexes"})
        assert listing["indexes"] == ["a", "b"]
        assert sorted(sharded.indexes.values()) == [0, 1]

        # Searches route to the shard that built the graph.
        for name in ("a", "b"):
            found = sharded.run(
                JobSpec(kind="search_index", params={"query": 3, "k": 4, "name": name})
            )
            assert found.ok and len(found.value) == 4
        ordinal = sharded.run(JobSpec(
            kind="search_index",
            params={"query": 3, "k": 4, "name": "a", "mode": "comparison"},
        ))
        assert ordinal.ok and len(ordinal.value["ids"]) == 4

        with pytest.raises(ValueError, match="no shard owns"):
            sharded.run(
                JobSpec(kind="search_index", params={"query": 3, "k": 4, "name": "zzz"})
            )

        # Restore into a fresh coordinator rebuilds the owner map.
        base = str(tmp_path_factory.mktemp("idx") / "warm")
        sharded.snapshot(base)
        from repro.datasets.facades import flickr_space
        from repro.service import ShardedEngine
        from repro.spaces.handles import handle_for

        second = ShardedEngine(
            handle_for(flickr_space, n=40, dim=5, seed=13),
            num_shards=2,
            provider="tri",
        )
        try:
            second.restore(base)
            listing = second.handle_request({"op": "indexes"})
            assert listing["indexes"] == ["a", "b"]
            found = second.run(
                JobSpec(kind="search_index", params={"query": 3, "k": 4, "name": "b"})
            )
            assert found.ok and len(found.value) == 4
        finally:
            second.close()


class TestServerOps:
    def test_build_index_op_builds_and_lists(self, engine):
        reply = dispatch(
            engine, {"op": "build_index", "graph": "nsg", "params": {"r": 4, "k": 8}}
        )
        assert reply["ok"] and reply["result"]["status"] == "completed"
        assert reply["result"]["value"]["name"] == "nsg"
        listing = dispatch(engine, {"op": "indexes"})
        assert listing == {"ok": True, "indexes": ["nsg"]}

    def test_search_via_submit_op_round_trips_json(self, engine):
        dispatch(
            engine, {"op": "build_index", "graph": "hnsw", "params": {"m": 4, "ef": 12}}
        )
        reply = dispatch(
            engine,
            {"op": "submit",
             "spec": {"kind": "search_index", "params": {"query": 4, "k": 3}}},
        )
        assert reply["ok"] and reply["result"]["status"] == "completed"
        payload = json.loads(json.dumps(reply))
        assert len(payload["result"]["value"]) == 3
