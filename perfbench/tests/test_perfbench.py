"""Self-tests of the benchmark: answer checking, metric names, smoke runs.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import common  # noqa: E402
import run  # noqa: E402


def _declared(kind: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _reply(value, status="completed"):
    return {"ok": True, "result": {"status": status, "value": value}}


def test_corrupted_answer_counts_as_failure():
    inputs = common.served_inputs("served_sharded", seed=5, count=6)
    requests = inputs["phases"][0]
    records = [
        {"rid": r["rid"], "response": _reply(json.loads(inputs["expected"][r["rid"]]))}
        for r in requests
    ]
    assert run.check_answers(records, inputs["expected"]) == (6, 0)
    # One extra element: the answer a wrong prune or merge would return.
    records[0]["response"] = _reply(json.loads(inputs["expected"][0]) + [0])
    records[1]["response"] = _reply(json.loads(inputs["expected"][1]), status="partial")
    records[2]["response"] = {"ok": False, "error": "boom"}
    assert run.check_answers(records, inputs["expected"]) == (6, 3)


def test_wrong_mutation_ids_count_as_failure():
    inputs = common.served_inputs("served_cold_churn", seed=5, count=common.CHURN_PHASES)
    want = inputs["mutations"]
    good = [{"response": {"ok": True, "result": {"inserted_ids": w["inserted_ids"],
                                                  "removed_ids": w["removed_ids"]}}}
            for w in want]
    assert run.check_mutations(good, want) == 0
    assert run.check_mutations(good[:-1], want) == 1  # a barrier never ran
    good[0]["response"]["result"]["inserted_ids"] = [-1]
    assert run.check_mutations(good, want) == 1


@pytest.mark.parametrize("workload", ["served_warm", "served_cold_churn", "served_sharded"])
def test_seeds_only_reorder_the_requests(workload):
    one, two = (common.served_inputs(workload, seed=s, count=48) for s in (1, 2))
    assert one["mutations"] == two["mutations"]
    assert one["phases"] != two["phases"]
    for a, b in zip(one["phases"], two["phases"]):
        specs = [sorted(json.dumps(r["spec"], sort_keys=True) for r in phase) for phase in (a, b)]
        assert specs[0] == specs[1]
    if workload != "served_cold_churn":
        kinds = [r["spec"]["kind"] for r in one["phases"][0]]
        share = 48 // len(common.KINDS[workload])
        assert all(kinds.count(k) == share for k in common.KINDS[workload])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_emits_declared_metrics(workload):
    result = _smoke(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["offline_suite", "served_cold_churn", "served_sharded"])
def test_traced_run_emits_declared_per_layer_metrics(workload):
    result = _smoke(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == _declared("per_layer")
    assert metrics["trace.coverage"] >= run.MIN_COVERAGE
    if workload == "served_cold_churn":
        assert metrics["dynamic.apply_ms_p50"] > 0 and metrics["lock.write_acquires"] > 0
    if workload == "served_sharded":
        # Every shard process wrote its trace file and both were merged.
        assert metrics["sharding.shard_job_s.0"] > 0 and metrics["sharding.shard_job_s.1"] > 0
        assert metrics["sharding.route_ms_p50"] > 0
