"""The JSON-lines wire protocol and its one op table.

Each request is one JSON object on one line, each response one JSON
object on one line.  :func:`dispatch` answers every op for either backend
— a single :class:`~repro.service.engine.ProximityEngine` or a
:class:`~repro.service.sharding.ShardedEngine` — and
:class:`~repro.service.aserver.AsyncProximityServer` carries it over Unix
and TCP sockets.  Operations:

``{"op": "submit", "spec": {...}}``
    Build a :class:`~repro.service.jobs.JobSpec` from ``spec``, run it to
    completion, and return the serialised :class:`JobResult`.
    ``build_index`` is sugar for a ``build_index`` job.
``{"op": "stats"}``
    Return the backend's ``snapshot_stats().to_dict()``.
``{"op": "metrics"}``
    Return the metrics registry rendered in Prometheus text exposition
    format (the ``metrics`` field of the response).
``{"op": "snapshot", "path": "..."}``
    Write a warm-state snapshot; ``path`` in the reply is what the backend
    wrote (a sharded backend answers its store and per-shard archives).
``{"op": "indexes"}``
    Names of the built navigable-graph indexes.
``{"op": "ping"}``
    Liveness check.
``{"op": "mutate", "mutations": [{"kind": "insert", "payload": ...},
{"kind": "remove", "id": 3}, ...]}``
    Apply one atomic mutation batch (dynamic engines only); returns the
    :class:`~repro.dynamic.mutations.MutationResult` accounting.
    ``insert`` / ``remove`` also exist as single-mutation shorthand ops.
``{"op": "subscribe", "kind": "knn"|"knng", ...}``
    Register a standing query (``query``/``k`` for kNN, ``k`` for the
    kNN-graph); returns ``sub_id`` and the initial result.
``{"op": "deltas", "sub_id": 1, "since": 0}``
    Poll a subscription's entered/left/reordered deltas past a sequence
    cursor, plus its current registered result.  ``unsubscribe`` drops it.
"""

from __future__ import annotations

import dataclasses
import json
import socket
from typing import Any, Dict, Optional, Tuple

from repro.dynamic import Mutation
from repro.service.jobs import JobSpec


def jsonable(value: Any) -> Any:
    """Best-effort conversion of a query result to JSON-encodable data.

    Handles the shapes jobs actually return: dataclass results
    (``ClusteringResult``/``MstResult``/...), tuples/lists of numbers, and
    dicts keyed by pairs.  Anything else falls back to ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return repr(value)


def result_to_dict(result) -> Dict[str, Any]:
    """Serialise a :class:`~repro.service.jobs.JobResult` for the wire."""
    return {
        "status": result.status.value,
        "value": jsonable(result.value),
        "unresolved": [list(pair) for pair in result.unresolved],
        "charged_calls": result.charged_calls,
        "warm_resolutions": result.warm_resolutions,
        "latency_seconds": result.latency_seconds,
        "error": result.error,
    }


def spec_from_dict(payload: Dict[str, Any]) -> JobSpec:
    """Build a :class:`JobSpec` from a request's ``spec`` object."""
    return JobSpec(
        kind=str(payload["kind"]),
        params=dict(payload.get("params", {})),
        priority=int(payload.get("priority", 0)),
        oracle_budget=payload.get("oracle_budget"),
        deadline=payload.get("deadline"),
        label=str(payload.get("label", "")),
        stretch=float(payload.get("stretch", 1.0)),
    )


def mutation_from_dict(payload: Dict[str, Any]) -> Mutation:
    """Build a :class:`~repro.dynamic.mutations.Mutation` from wire JSON."""
    obj_id = payload.get("id", payload.get("obj_id"))
    return Mutation(
        kind=str(payload.get("kind", "")),
        payload=payload.get("payload"),
        obj_id=None if obj_id is None else int(obj_id),
    )


def dispatch(backend, request: Dict[str, Any]) -> Dict[str, Any]:
    """Answer one protocol request against a backend: the one op table.

    ``backend`` is a :class:`~repro.service.engine.ProximityEngine` or a
    :class:`~repro.service.sharding.ShardedEngine`; both expose the methods
    called here with the same signatures, so the table never asks which
    one it holds.  Both backends' ``handle_request`` route here, as does
    the shard process for every message that is not shard-private.
    """
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "op": "ping"}
    if op == "stats":
        return {"ok": True, "stats": backend.snapshot_stats().to_dict()}
    if op == "metrics":
        return {"ok": True, "metrics": backend.render_metrics()}
    if op == "snapshot":
        return {"ok": True, "path": backend.snapshot(request.get("path"))}
    if op in ("submit", "build_index"):
        if op == "submit":
            spec = spec_from_dict(request.get("spec", {}))
        else:
            # Sugar over submit: build a navigable graph as a normal job.
            params = dict(request.get("params", {}))
            params.setdefault("graph", str(request.get("graph", "hnsw")))
            spec = spec_from_dict({"kind": "build_index", "params": params,
                                   "label": request.get("label", "build-index")})
        result = backend.run(spec, request.get("timeout"))
        return {"ok": True, "result": result_to_dict(result)}
    if op == "indexes":
        return {"ok": True, "indexes": sorted(backend.indexes)}
    if op in ("mutate", "insert", "remove"):
        if op == "mutate":
            batch = [mutation_from_dict(m) for m in request.get("mutations", [])]
        elif op == "insert":
            batch = [Mutation(kind="insert", payload=request.get("payload"))]
        else:
            batch = [Mutation(kind="remove", obj_id=int(request["id"]))]
        outcome = backend.apply_mutations(batch)
        reply = {"ok": True, "result": outcome.to_dict()}
        if op == "insert":
            reply["id"] = outcome.inserted_ids[0]
        return reply
    if op == "subscribe":
        kind = str(request.get("kind", "knn"))
        if kind == "knn":
            sub = backend.subscribe_knn(int(request["query"]), int(request.get("k", 5)))
        elif kind == "knng":
            sub = backend.subscribe_knng(int(request.get("k", 5)))
        else:
            return {"ok": False, "error": f"unknown subscription kind {kind!r}"}
        return {
            "ok": True,
            "sub_id": sub.sub_id,
            "kind": sub.kind,
            "seq": sub.seq,
            "result": sub.result_dict(),
        }
    if op == "deltas":
        sub_id = int(request["sub_id"])
        deltas = backend.subscription_deltas(sub_id, int(request.get("since", 0)))
        sub = backend.subscriptions.get(sub_id)
        return {
            "ok": True,
            "sub_id": sub_id,
            "seq": sub.seq,
            "deltas": [d.to_dict() for d in deltas],
            "result": sub.result_dict(),
        }
    if op == "unsubscribe":
        backend.unsubscribe(int(request["sub_id"]))
        return {"ok": True, "sub_id": int(request["sub_id"])}
    return {"ok": False, "error": f"unknown op {op!r}"}


def parse_target(target: str) -> Tuple[str, Any]:
    """Classify a CLI-style server address.

    ``host:port`` (port all digits) → ``("tcp", (host, port))``; anything
    else → ``("unix", path)``.  A bare ``:port`` means localhost.  Paths
    containing ``/`` are never mistaken for TCP targets.
    """
    text = str(target)
    if "/" not in text and ":" in text:
        host, _, port = text.rpartition(":")
        if port.isdigit():
            return "tcp", (host or "127.0.0.1", int(port))
    return "unix", text


def send_request(
    target: str,
    request: Dict[str, Any],
    timeout: Optional[float] = 30.0,
) -> Dict[str, Any]:
    """One round-trip against a running proximity server.

    ``target`` is either a Unix-socket path or a ``host:port`` TCP address
    (see :func:`parse_target`) — the JSON-lines protocol is identical on
    both transports.
    """
    kind, address = parse_target(target)
    if kind == "tcp":
        client = socket.create_connection(address, timeout=timeout)
    else:
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(timeout)
        client.connect(str(address))
    with client:
        client.sendall((json.dumps(request) + "\n").encode("utf-8"))
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = client.recv(65536)
            if not chunk:
                break
            buffer += chunk
    if not buffer:
        raise ConnectionError("server closed the connection without answering")
    return json.loads(buffer.decode("utf-8"))
