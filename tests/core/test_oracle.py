"""Unit tests for the distance oracle accounting layer."""

import math

import pytest

from repro.core.exceptions import BudgetExceededError, InvalidObjectError
from repro.core.oracle import DistanceOracle, WallClockOracle, canonical_pair


def manhattan_1d(i, j):
    return float(abs(i - j))


class TestCanonicalPair:
    def test_orders_ascending(self):
        assert canonical_pair(5, 2) == (2, 5)

    def test_keeps_sorted_input(self):
        assert canonical_pair(2, 5) == (2, 5)

    def test_identity_pair(self):
        assert canonical_pair(3, 3) == (3, 3)


class TestDistanceOracle:
    def test_returns_distance(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        assert oracle(2, 7) == 5.0

    def test_self_distance_is_zero_and_free(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        assert oracle(4, 4) == 0.0
        assert oracle.calls == 0

    def test_counts_uncached_calls(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        oracle(1, 2)
        oracle(3, 4)
        assert oracle.calls == 2

    def test_cache_prevents_double_charge(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        oracle(1, 2)
        oracle(1, 2)
        oracle(2, 1)  # symmetric request hits the same cache entry
        assert oracle.calls == 1
        assert oracle.cache_hits == 2

    def test_symmetric_consistency(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        assert oracle(3, 8) == oracle(8, 3)

    def test_simulated_latency_accumulates(self):
        oracle = DistanceOracle(manhattan_1d, 10, cost_per_call=0.5)
        oracle(0, 1)
        oracle(0, 2)
        oracle(0, 1)  # cached: not charged
        assert oracle.simulated_seconds == pytest.approx(1.0)

    def test_budget_enforced(self):
        oracle = DistanceOracle(manhattan_1d, 10, budget=2)
        oracle(0, 1)
        oracle(0, 2)
        with pytest.raises(BudgetExceededError):
            oracle(0, 3)

    def test_budget_allows_cached_requests(self):
        oracle = DistanceOracle(manhattan_1d, 10, budget=1)
        oracle(0, 1)
        assert oracle(0, 1) == 1.0  # cached, no budget charge

    def test_out_of_range_index_rejected(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        with pytest.raises(InvalidObjectError):
            oracle(0, 10)
        with pytest.raises(InvalidObjectError):
            oracle(-1, 3)

    def test_negative_distance_rejected(self):
        oracle = DistanceOracle(lambda i, j: -1.0, 5)
        with pytest.raises(ValueError):
            oracle(0, 1)

    def test_peek_never_charges(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        assert oracle.peek(1, 2) is None
        oracle(1, 2)
        assert oracle.peek(2, 1) == 1.0
        assert oracle.calls == 1

    def test_peek_self_pair(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        assert oracle.peek(3, 3) == 0.0

    def test_is_resolved(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        assert not oracle.is_resolved(1, 2)
        oracle(1, 2)
        assert oracle.is_resolved(2, 1)

    def test_stats_snapshot_subtraction(self):
        oracle = DistanceOracle(manhattan_1d, 10, cost_per_call=1.0)
        oracle(0, 1)
        before = oracle.stats()
        oracle(0, 2)
        oracle(0, 3)
        delta = oracle.stats() - before
        assert delta.calls == 2
        assert delta.simulated_seconds == pytest.approx(2.0)

    def test_reset_clears_everything(self):
        oracle = DistanceOracle(manhattan_1d, 10, cost_per_call=1.0)
        oracle(0, 1)
        oracle.reset()
        assert oracle.calls == 0
        assert oracle.simulated_seconds == 0.0
        assert not oracle.is_resolved(0, 1)

    def test_invalid_construction(self):
        with pytest.raises(InvalidObjectError):
            DistanceOracle(manhattan_1d, 0)
        with pytest.raises(ValueError):
            DistanceOracle(manhattan_1d, 5, cost_per_call=-1)
        with pytest.raises(ValueError):
            DistanceOracle(manhattan_1d, 5, budget=-1)


class TestKeywordOnlyConstructor:
    """The positional cost/budget shim (deprecated in PR 1) is gone:
    ``cost_per_call`` and ``budget`` are keyword-only."""

    def test_positional_cost_rejected(self):
        with pytest.raises(TypeError):
            DistanceOracle(manhattan_1d, 10, 0.5)

    def test_positional_budget_rejected(self):
        with pytest.raises(TypeError):
            DistanceOracle(manhattan_1d, 10, 0.0, 1)

    def test_keyword_form_does_not_warn(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            oracle = DistanceOracle(manhattan_1d, 10, cost_per_call=0.5, budget=3)
        assert oracle.cost_per_call == 0.5
        oracle(0, 1)
        assert oracle.simulated_seconds == pytest.approx(0.5)


class TestBatchedExecutionSurface:
    """The commit/seed/observe API used by the repro.exec pipeline."""

    def test_record_charges_like_call(self):
        oracle = DistanceOracle(manhattan_1d, 10, cost_per_call=1.0)
        assert oracle.record(1, 0, 1.0) == 1.0
        assert oracle.calls == 1
        assert oracle.simulated_seconds == 1.0
        assert oracle.peek(0, 1) == 1.0

    def test_record_is_idempotent_on_cached_pairs(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        oracle(0, 1)
        assert oracle.record(0, 1, 999.0) == 1.0  # cached value wins
        assert oracle.calls == 1

    def test_record_validates_value_and_indices(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        with pytest.raises(ValueError):
            oracle.record(0, 1, -2.0)
        with pytest.raises(InvalidObjectError):
            oracle.record(0, 10, 1.0)
        assert oracle.record(4, 4, 0.0) == 0.0  # diagonal: free no-op

    def test_seed_is_free_and_reports_novelty(self):
        oracle = DistanceOracle(manhattan_1d, 10, cost_per_call=1.0)
        assert oracle.seed(0, 1, 1.0) is True
        assert oracle.seed(1, 0, 2.0) is False  # already known
        assert oracle.seed(3, 3, 0.0) is False  # diagonal
        assert oracle.calls == 0
        assert oracle.simulated_seconds == 0.0
        with pytest.raises(ValueError):
            oracle.seed(0, 2, math.inf)

    def test_refund_simulated(self):
        oracle = DistanceOracle(manhattan_1d, 10, cost_per_call=1.0)
        oracle(0, 1)
        oracle(0, 2)
        oracle.refund_simulated(1.5)
        assert oracle.simulated_seconds == pytest.approx(0.5)
        with pytest.raises(ValueError):
            oracle.refund_simulated(-1.0)

    def test_note_retries_and_timeouts(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        oracle.note_retries(2)
        oracle.note_timeouts()
        assert oracle.retries == 2
        assert oracle.timeouts == 1
        with pytest.raises(ValueError):
            oracle.note_retries(-1)
        stats = oracle.stats()
        assert (stats.retries, stats.timeouts) == (2, 1)

    def test_stats_subtraction_covers_fault_counters(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        before = oracle.stats()
        oracle.note_retries(3)
        oracle.note_timeouts(2)
        delta = oracle.stats() - before
        assert delta.retries == 3
        assert delta.timeouts == 2

    def test_subscribe_and_unsubscribe(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        seen = []
        listener = lambda i, j, d: seen.append((i, j, d))  # noqa: E731
        oracle.subscribe(listener)
        oracle(1, 0)
        oracle(1, 0)  # cache hit: listeners not re-notified
        oracle.unsubscribe(listener)
        oracle(0, 2)
        assert seen == [(0, 1, 1.0)]

    def test_listeners_survive_reset(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        seen = []
        oracle.subscribe(lambda i, j, d: seen.append((i, j)))
        oracle.reset()
        oracle(0, 1)
        assert seen == [(0, 1)]

    def test_in_batch_labels_and_restores(self):
        oracle = DistanceOracle(manhattan_1d, 10)
        assert oracle.active_batch is None
        with oracle.in_batch(7):
            assert oracle.active_batch == 7
        assert oracle.active_batch is None


class TestWallClockOracle:
    def test_measures_real_time(self):
        import time

        def slow(i, j):
            time.sleep(0.002)
            return 1.0

        oracle = WallClockOracle(slow, 5)
        oracle(0, 1)
        oracle(0, 2)
        assert oracle.wall_seconds >= 0.004
        assert oracle.calls == 2

    def test_cache_skips_timer(self):
        oracle = WallClockOracle(manhattan_1d, 5)
        oracle(0, 1)
        first = oracle.wall_seconds
        oracle(0, 1)
        assert oracle.wall_seconds == first
