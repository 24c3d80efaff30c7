import numpy as np
import pytest

from cascsim.errors import ConfigError
from cascsim.server import BatchLatencyTable, compute_capacity_greedy, select_batch_size

from conftest import random_monotone_table
from oracle_capacity import compute_capacity_exact
from oracle_engine import QueuedRequest, QueueUnderflowError, RequestQueue


class TestBatchLatencyTable:
    def test_key_outside_pool_rejected(self):
        with pytest.raises(ConfigError, match=r"^batch_latency_table\.3: "):
            BatchLatencyTable({1: 10, 3: 12})

    def test_batch_one_required(self):
        with pytest.raises(ConfigError, match=r"^batch_latency_table: "):
            BatchLatencyTable({2: 10})

    def test_non_positive_latency_rejected(self):
        with pytest.raises(ConfigError, match=r"^batch_latency_table\.1: "):
            BatchLatencyTable({1: 0.0})

    def test_max_effective_must_have_entry(self):
        with pytest.raises(ConfigError, match=r"^max_effective_batch: "):
            BatchLatencyTable({1: 10, 2: 12}, max_effective_batch=4)

    def test_throughput_regression_rejected(self):
        # 2/25 < 1/10, so throughput would fall from batch 1 to batch 2
        with pytest.raises(ConfigError, match=r"^batch_latency_table\.2: "):
            BatchLatencyTable({1: 10, 2: 25})

    def test_regression_beyond_cap_is_allowed(self):
        table = BatchLatencyTable({1: 10, 2: 12, 32: 10_000}, max_effective_batch=2)
        assert table.effective_sizes == (1, 2)

    def test_max_effective_defaults_to_largest_key(self):
        table = BatchLatencyTable({1: 10, 2: 12, 4: 16})
        assert table.max_effective_batch == 4

    def test_peak_throughput(self):
        table = BatchLatencyTable({1: 10, 2: 12}, 2)
        assert table.peak_throughput == pytest.approx(1000 * 2 / 12)


class TestSelectBatchSize:
    def test_largest_pool_size_at_or_below_queue(self, spec_table):
        assert select_batch_size(5, spec_table) == 4

    def test_capped_by_max_effective(self, spec_table):
        assert select_batch_size(100, spec_table) == 16

    def test_empty_queue_yields_none(self, spec_table):
        assert select_batch_size(0, spec_table) is None

    def test_respects_missing_sizes(self):
        table = BatchLatencyTable({1: 10, 2: 12, 8: 30}, 8)
        assert select_batch_size(7, table) == 2

    def test_never_exceeds_queue(self, spec_table):
        for q in range(0, 40):
            b = select_batch_size(q, spec_table)
            if b is not None:
                assert b <= q
                assert b <= spec_table.max_effective_batch


class TestGreedyCapacity:
    def test_worked_example(self, spec_table):
        result = compute_capacity_greedy(spec_table, 100)
        assert result.capacity == 36
        assert result.schedule == ((16, 2), (4, 1))
        assert result.time_used_ms == 96.0

    def test_single_size_floor(self):
        table = BatchLatencyTable({1: 10})
        assert compute_capacity_greedy(table, 100).capacity == 10

    def test_infeasible_budget_is_zero(self):
        table = BatchLatencyTable({1: 10, 2: 12}, 2)
        result = compute_capacity_greedy(table, 9)
        assert result.capacity == 0
        assert result.schedule == ()
        assert result.time_used_ms == 0.0

    @pytest.mark.parametrize("slo", [0, -5, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_slo_rejected(self, spec_table, slo):
        with pytest.raises(ConfigError, match=r"^slo_ms: "):
            compute_capacity_greedy(spec_table, slo)

    def test_capacity_counts_exactly_up_to_2_pow_53(self):
        assert compute_capacity_greedy(BatchLatencyTable({1: 1.0}), 2.0 ** 53).capacity == 2 ** 53
        # beyond it: too many batches of one size, then too many samples in total
        for entries, slo in (({1: 1.0}, 2.0 ** 54), ({1: 1e-15, 64: 1e-15}, 1.0)):
            with pytest.raises(ConfigError, match=r"^slo_ms: .*2\*\*53"):
                compute_capacity_greedy(BatchLatencyTable(entries), slo)


class TestExactCapacity:
    def test_matches_worked_example(self, spec_table):
        assert compute_capacity_exact(spec_table, 100).capacity == 36

    def test_single_size_floor(self):
        table = BatchLatencyTable({1: 10})
        assert compute_capacity_exact(table, 95).capacity == 9

    def test_schedule_invariants(self, spec_table):
        result = compute_capacity_exact(spec_table, 137)
        assert sum(b * n for b, n in result.schedule) == result.capacity
        assert result.time_used_ms <= 137


class TestGreedyAgainstExact:
    def test_equivalence_on_random_monotone_tables(self):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            table = random_monotone_table(rng)
            slo = int(rng.integers(50, 5001))
            greedy = compute_capacity_greedy(table, slo)
            exact = compute_capacity_exact(table, slo)
            assert greedy.capacity == exact.capacity, (table, slo)

    def test_capacity_monotone_in_slo(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            table = random_monotone_table(rng)
            caps = [compute_capacity_greedy(table, slo).capacity
                    for slo in range(50, 1050, 100)]
            assert all(a <= b for a, b in zip(caps, caps[1:]))

    def test_capacity_monotone_in_latency(self):
        slower = BatchLatencyTable({1: 20, 2: 24}, 2)
        faster = BatchLatencyTable({1: 10, 2: 12}, 2)
        for slo in (50, 100, 500):
            assert compute_capacity_greedy(faster, slo).capacity >= \
                compute_capacity_greedy(slower, slo).capacity


class TestRequestQueue:
    def test_fifo_order(self):
        q = RequestQueue()
        a = QueuedRequest(0, 0, 1.0)
        b = QueuedRequest(1, 0, 2.0)
        q.enqueue(a)
        q.enqueue(b)
        assert q.dequeue_batch(2) == [a, b]

    def test_underflow(self):
        q = RequestQueue()
        with pytest.raises(QueueUnderflowError):
            q.dequeue_batch(1)

    def test_partial_dequeue_leaves_tail(self):
        q = RequestQueue()
        reqs = [QueuedRequest(i, 0, float(i)) for i in range(3)]
        for r in reqs:
            q.enqueue(r)
        q.dequeue_batch(2)
        assert len(q) == 1
        assert q.dequeue_batch(1) == [reqs[2]]

    def test_timestamps_preserved(self):
        q = RequestQueue()
        q.enqueue(QueuedRequest(4, 9, 123.5))
        assert q.dequeue_batch(1)[0].enqueued_ms == 123.5
