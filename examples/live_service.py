"""A live service: object churn against a warm engine, without rebuilds.

This demo runs the dynamic subsystem end to end on a mutable object set:

1. **Standing queries** — a kNN-graph subscription stays registered in the
   engine and is always current; clients consume *deltas* instead of
   re-running the query.
2. **Incremental maintenance** — each churn batch (removes + inserts) is
   absorbed by patching the partial graph and the bound provider; the
   strong-call cost per batch is a small fraction of the initial build.
3. **Exactness survives churn** — after all batches, the standing result
   is byte-identical to what a fresh engine computes on the surviving set.
4. **The wire protocol** — the same mutations flow through a served
   engine's ``insert`` / ``remove`` / ``subscribe`` / ``deltas`` verbs.

Run with:  python examples/live_service.py
"""

import tempfile
from pathlib import Path

from repro.datasets import flickr_space
from repro.dynamic import DynamicObjectSet, churn_batch
from repro.service import AsyncProximityServer, ProximityEngine, send_request

N = 64
K = 4
BATCHES = 3
FRACTION = 0.10


def main() -> None:
    # Wrap a frozen dataset as a mutable view, holding back a reserve of
    # payloads so inserts bring genuinely new objects into the live set.
    base = flickr_space(n=N, dim=4, seed=23)
    per_batch = max(1, round(FRACTION * N / 2))
    reserve = list(range(N - BATCHES * per_batch, N))
    objects = DynamicObjectSet.wrap(base, initial=N - len(reserve))

    with ProximityEngine.for_space(
        objects, provider="tri", job_workers=1
    ) as engine:
        sub = engine.subscribe_knng(K)
        build = engine.oracle.calls
        print(f"standing {K}-NN graph over {objects.num_alive} objects "
              f"built for {build} strong calls")

        # 1+2. Churn batches: removals recycle slots, inserts consume the
        # reserve; the subscription refreshes bounds-first each time.
        seen_seq = 0
        for batch_no in range(BATCHES):
            fresh = [reserve.pop(0) for _ in range(per_batch)]
            batch = churn_batch(objects, fraction=FRACTION,
                                seed=40 + batch_no, insert_payloads=fresh)
            result = engine.apply_mutations(batch)
            deltas = engine.subscription_deltas(sub.sub_id, since=seen_seq)
            seen_seq = max((d.seq for d in deltas), default=seen_seq)
            touched = sum(len(d.entered) + len(d.left) for d in deltas)
            print(f"batch {batch_no}: -{len(result.removed_ids)} "
                  f"+{len(result.inserted_ids)} objects, "
                  f"{result.strong_calls} strong calls, "
                  f"{result.edges_dropped} edges dropped, "
                  f"{touched} standing entries touched")

        standing = engine.subscriptions.get(sub.sub_id).result
        final_calls = engine.oracle.calls

    # 3. Exactness: a cold engine on the surviving set must agree.
    alive = objects.alive_ids()
    survivors = DynamicObjectSet(
        [objects.payload(i) for i in alive],
        lambda a, b: base.distance(a, b),
        diameter=base.diameter_bound(),
    )
    with ProximityEngine.for_space(
        survivors, provider="tri", job_workers=1
    ) as fresh_engine:
        fresh_sub = fresh_engine.subscribe_knng(K)
        fresh = fresh_engine.subscriptions.get(fresh_sub.sub_id).result
        rebuild = fresh_engine.oracle.calls
    pos = {slot: p for p, slot in enumerate(alive)}
    mapped = {pos[u]: [(d, pos[v]) for d, v in row]
              for u, row in standing.items()}
    assert mapped == {u: list(row) for u, row in fresh.items()}
    maintained = final_calls - build
    print(f"maintenance total {maintained} strong calls vs {rebuild} for a "
          f"cold rebuild ({rebuild / max(1, maintained):.1f}x saved), "
          f"answers identical")

    # 4. The same verbs over a served engine's socket.
    mutable = DynamicObjectSet.wrap(flickr_space(n=24, dim=4, seed=9),
                                    initial=20)
    with ProximityEngine.for_space(
        mutable, provider="tri", job_workers=1
    ) as served, tempfile.TemporaryDirectory() as tmp:
        sock = str(Path(tmp) / "live.sock")
        with AsyncProximityServer(served, socket_path=sock):
            sub_reply = send_request(
                sock, {"op": "subscribe", "kind": "knn", "query": 0, "k": 3}
            )
            victim = int(sub_reply["result"]["neighbors"][0][1])
            send_request(sock, {"op": "remove", "id": victim})
            recycled = send_request(sock, {"op": "insert", "payload": 20})
            polled = send_request(
                sock,
                {"op": "deltas", "sub_id": sub_reply["sub_id"], "since": 0},
            )
            print(f"over the wire: removed neighbor {victim}, insert "
                  f"recycled slot {recycled['id']}, client polled "
                  f"{len(polled['deltas'])} delta(s)")

    print("the engine never rebuilt; the clients never re-queried")


if __name__ == "__main__":
    main()
