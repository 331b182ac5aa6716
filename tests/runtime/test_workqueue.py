"""The bounded work queue: batching, worker scaling, admission control."""

import pytest

from repro.netsim import SimClock
from repro.obs import MetricsRegistry
from repro.runtime import EventScheduler, WorkQueue, WorkQueueConfig


def make(config, **kwargs):
    clock = SimClock()
    sched = EventScheduler(clock, seed=0)
    batches = []
    queue = WorkQueue(sched, config, lambda items, waits: batches.append(items), **kwargs)
    return clock, sched, queue, batches


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkQueueConfig(workers=0)
        with pytest.raises(ValueError):
            WorkQueueConfig(batch_size=0)
        with pytest.raises(ValueError):
            WorkQueueConfig(queue_limit=0)
        with pytest.raises(ValueError):
            WorkQueueConfig(per_item_cost=-0.1)

    def test_batch_cost_amortizes_overhead(self):
        config = WorkQueueConfig(per_item_cost=0.002, batch_overhead=0.004)
        assert config.batch_cost(1) == pytest.approx(0.006)
        assert config.batch_cost(8) == pytest.approx(0.020)
        # Per-item cost falls with batch size — the amortization claim.
        assert config.batch_cost(8) / 8 < config.batch_cost(1)


class TestBatching:
    def test_items_batch_behind_a_busy_worker(self):
        """The first arrival goes straight into service; arrivals during
        that service time coalesce into batch_size groups."""
        _, sched, queue, batches = make(WorkQueueConfig(batch_size=3))
        for i in range(7):
            assert queue.submit(i)
        sched.run_until_idle()
        assert batches == [[0], [1, 2, 3], [4, 5, 6]]

    def test_batch_completes_after_its_service_time(self):
        clock, sched, queue, batches = make(
            WorkQueueConfig(per_item_cost=0.002, batch_overhead=0.004)
        )
        queue.submit("warm")  # occupies the worker until 0.006
        queue.submit("a")
        queue.submit("b")
        sched.run_until_idle()
        assert batches == [["warm"], ["a", "b"]]
        # 0.006 for the warm batch, then batch_cost(2) = 0.008.
        assert clock.now() == pytest.approx(0.006 + 0.008)

    def test_single_worker_serializes_batches(self):
        clock, sched, queue, _ = make(
            WorkQueueConfig(workers=1, batch_size=1,
                            per_item_cost=0.01, batch_overhead=0.0)
        )
        for i in range(4):
            queue.submit(i)
        sched.run_until_idle()
        assert clock.now() == pytest.approx(0.04)  # back to back

    def test_worker_pool_runs_batches_concurrently(self):
        clock, sched, queue, _ = make(
            WorkQueueConfig(workers=4, batch_size=1,
                            per_item_cost=0.01, batch_overhead=0.0)
        )
        for i in range(4):
            queue.submit(i)
        assert queue.busy_workers == 4
        sched.run_until_idle()
        assert clock.now() == pytest.approx(0.01)  # all four in parallel

    def test_work_queued_during_service_is_picked_up(self):
        clock, sched, queue, batches = make(
            WorkQueueConfig(workers=1, batch_size=8,
                            per_item_cost=0.01, batch_overhead=0.0)
        )
        queue.submit("first")
        sched.at(0.005, lambda: queue.submit("late"))  # mid-service
        sched.run_until_idle()
        assert batches == [["first"], ["late"]]
        assert queue.idle


class TestAdmissionControl:
    def test_overflow_is_shed(self):
        registry = MetricsRegistry()
        clock, sched, queue, batches = make(
            WorkQueueConfig(workers=1, batch_size=1, queue_limit=2),
            label="kdc.queue", metrics=registry,
        )
        # Worker takes the first item immediately; two more fill the
        # queue; the fourth is refused.
        assert queue.submit(1) and queue.submit(2) and queue.submit(3)
        assert queue.submit(4) is False
        assert registry.total("kdc.queue.shed_total") == 1
        sched.run_until_idle()
        assert batches == [[1], [2], [3]]

    def test_shedding_counts_in_metrics(self):
        registry = MetricsRegistry()
        clock = SimClock()
        sched = EventScheduler(clock)
        config = WorkQueueConfig(workers=1, batch_size=1, queue_limit=1)
        queue = WorkQueue(
            sched, config, lambda b, waits: None,
            label="kdc.queue", metrics=registry, labels={"server": "kdc"},
        )
        queue.submit(1)
        queue.submit(2)
        queue.submit(3)  # shed
        assert registry.total("kdc.queue.shed_total", server="kdc") == 1
        assert registry.total("kdc.queue.submitted_total", server="kdc") == 2

    def test_drained_queue_admits_again(self):
        clock, sched, queue, batches = make(
            WorkQueueConfig(workers=1, batch_size=1, queue_limit=1)
        )
        queue.submit(1)
        queue.submit(2)
        assert queue.submit(3) is False
        sched.run_until_idle()
        assert queue.submit(3) is True
        sched.run_until_idle()
        assert [b[0] for b in batches] == [1, 2, 3]


class TestCrash:
    def test_drop_pending_empties_queue(self):
        clock, sched, queue, batches = make(
            WorkQueueConfig(workers=1, batch_size=1, queue_limit=10)
        )
        for i in range(5):
            queue.submit(i)
        dropped = queue.drop_pending()
        assert dropped == [1, 2, 3, 4]  # 0 is already in service
        sched.run_until_idle()
        assert batches == [[0]]  # the in-flight batch still completes
