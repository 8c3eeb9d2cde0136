"""Unit tests for the benchmark trend gate (``scripts/bench_trend.py``)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trend.py"
_spec = importlib.util.spec_from_file_location("bench_trend", _SCRIPT)
bench_trend = importlib.util.module_from_spec(_spec)
sys.modules["bench_trend"] = bench_trend
_spec.loader.exec_module(bench_trend)


def _artifact(metrics):
    return {"schema_version": 1, "benchmark": "t", "metrics": metrics}


class TestDirections:
    def test_seconds_and_ms_are_lower_better(self):
        assert bench_trend.metric_direction("frontier_csr_seconds") == "lower"
        assert bench_trend.metric_direction("sweep_ms") == "lower"

    def test_speedup_savings_throughput_are_higher_better(self):
        assert bench_trend.metric_direction("frontier_speedup") == "higher"
        assert bench_trend.metric_direction("stretch_savings_pct") == "higher"
        assert bench_trend.metric_direction("throughput_qps") == "higher"

    def test_recall_is_higher_better(self):
        assert bench_trend.metric_direction("recall_at_10") == "higher"
        assert bench_trend.metric_direction("comparison_recall_at_10") == "higher"

    def test_descriptive_metrics_are_ungated(self):
        assert bench_trend.metric_direction("frontier_n") is None
        assert bench_trend.metric_direction("kernel_backend") is None


class TestCompare:
    def test_within_tolerance_passes(self):
        rows = bench_trend.compare(
            _artifact({"x_seconds": 1.2}), _artifact({"x_seconds": 1.0}), 0.25
        )
        assert not any(r["regressed"] for r in rows)

    def test_slower_seconds_beyond_tolerance_fails(self):
        rows = bench_trend.compare(
            _artifact({"x_seconds": 1.3}), _artifact({"x_seconds": 1.0}), 0.25
        )
        assert [r["metric"] for r in rows if r["regressed"]] == ["x_seconds"]

    def test_faster_seconds_never_fails(self):
        rows = bench_trend.compare(
            _artifact({"x_seconds": 0.1}), _artifact({"x_seconds": 1.0}), 0.25
        )
        assert not any(r["regressed"] for r in rows)

    def test_dropped_speedup_beyond_tolerance_fails(self):
        rows = bench_trend.compare(
            _artifact({"speedup": 2.0}), _artifact({"speedup": 4.0}), 0.25
        )
        assert [r["metric"] for r in rows if r["regressed"]] == ["speedup"]

    def test_improved_speedup_never_fails(self):
        rows = bench_trend.compare(
            _artifact({"speedup": 9.0}), _artifact({"speedup": 4.0}), 0.25
        )
        assert not any(r["regressed"] for r in rows)

    def test_new_or_missing_metrics_are_informative_only(self):
        rows = bench_trend.compare(
            _artifact({"fresh_seconds": 1.0}), _artifact({"gone_seconds": 1.0}), 0.25
        )
        assert not any(r["regressed"] for r in rows)
        assert {r["metric"] for r in rows} == {"fresh_seconds", "gone_seconds"}

    def test_booleans_and_strings_are_never_gated(self):
        rows = bench_trend.compare(
            _artifact({"ok_seconds": True, "backend": "numpy"}),
            _artifact({"ok_seconds": False, "backend": "other"}),
            0.25,
        )
        assert not any(r["regressed"] for r in rows)


class TestMain:
    def _write(self, tmp_path, name, metrics):
        path = tmp_path / name
        path.write_text(json.dumps(_artifact(metrics)))
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        cur = self._write(tmp_path, "cur.json", {"x_seconds": 1.0, "speedup": 4.0})
        base = self._write(tmp_path, "base.json", {"x_seconds": 1.0, "speedup": 4.0})
        assert bench_trend.main([cur, "--baseline", base]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_injected_regression(self, tmp_path, capsys):
        cur = self._write(tmp_path, "cur.json", {"x_seconds": 10.0})
        base = self._write(tmp_path, "base.json", {"x_seconds": 1.0})
        assert bench_trend.main([cur, "--baseline", base]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "x_seconds" in captured.err

    def test_custom_tolerance(self, tmp_path):
        cur = self._write(tmp_path, "cur.json", {"x_seconds": 1.4})
        base = self._write(tmp_path, "base.json", {"x_seconds": 1.0})
        assert bench_trend.main([cur, "--baseline", base]) == 1
        assert bench_trend.main([cur, "--baseline", base, "--tolerance", "0.5"]) == 0
