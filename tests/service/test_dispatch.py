"""One op table: a single engine and a sharded coordinator answer alike.

Every protocol op goes through :func:`repro.service.server.dispatch` for
both backends, so each op must answer with the same ``ok`` and the same
reply keys whichever backend serves it.
"""

import pytest

from repro.datasets.facades import flickr_space
from repro.dynamic import DynamicObjectSet
from repro.service import ProximityEngine, ShardedEngine
from repro.spaces.handles import handle_for

N = 30


def _requests(directory):
    """Every op, in an order that leaves each one something to act on."""
    return [
        {"op": "ping"},
        {"op": "stats"},
        {"op": "metrics"},
        {"op": "snapshot", "path": f"{directory}/warm.npz"},
        {"op": "submit", "spec": {"kind": "knn", "params": {"query": 3, "k": 4}}},
        {"op": "build_index", "graph": "hnsw", "params": {"m": 4, "ef": 12}},
        {"op": "indexes"},
        {"op": "mutate", "mutations": [{"kind": "remove", "id": 5},
                                       {"kind": "insert", "payload": 5}]},
        {"op": "insert", "payload": 7},
        {"op": "remove", "id": 9},
        {"op": "subscribe", "kind": "knn", "query": 0, "k": 3},
        {"op": "deltas", "sub_id": 1, "since": 0},
        {"op": "unsubscribe", "sub_id": 1},
        {"op": "fly"},
    ]


OPS = [request["op"] for request in _requests("")]


@pytest.fixture(scope="module")
def handle():
    return handle_for(flickr_space, n=N, dim=4, seed=5)


@pytest.fixture(scope="module")
def replies(handle, tmp_path_factory):
    single = ProximityEngine.for_space(
        DynamicObjectSet.wrap(handle.space()), provider="tri", job_workers=1
    )
    sharded = ShardedEngine(handle, num_shards=2, provider="tri", dynamic=True)
    try:
        return {
            name: [
                backend.handle_request(request)
                for request in _requests(tmp_path_factory.mktemp(name))
            ]
            for name, backend in (("single", single), ("sharded", sharded))
        }
    finally:
        single.close(snapshot=False)
        sharded.close()


@pytest.mark.parametrize("index,op", list(enumerate(OPS)))
def test_same_ok_and_reply_keys(replies, index, op):
    single, sharded = replies["single"][index], replies["sharded"][index]
    assert single["ok"] == sharded["ok"], (single, sharded)
    assert single["ok"] is (op != "fly")
    assert set(single) == set(sharded)


def test_answers_agree(replies):
    single, sharded = replies["single"], replies["sharded"]
    submit = OPS.index("submit")
    assert single[submit]["result"]["value"] == sharded[submit]["result"]["value"]
    for op in ("mutate", "insert", "remove"):
        at = OPS.index(op)
        for key in ("inserted_ids", "removed_ids"):
            assert single[at]["result"][key] == sharded[at]["result"][key]
    at = OPS.index("indexes")
    assert single[at]["indexes"] == sharded[at]["indexes"] == ["hnsw"]
    assert "unknown op" in single[OPS.index("fly")]["error"]
