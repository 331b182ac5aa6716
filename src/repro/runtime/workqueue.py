"""Bounded worker pools with request batching and admission control.

Section 9 sizes the Athena deployment (5,000 users, 650 workstations,
three Kerberos machines) and reports the busy-hour reality: a KDC is a
queueing system, not an instant oracle.  :class:`WorkQueue` models one
service's inbound queue on the event scheduler:

* a **bounded queue** — arrivals beyond ``queue_limit`` are *shed*
  immediately (the caller converts that into a typed overload error the
  client's retry/failover path rides out);
* a **worker pool** — up to ``workers`` batches are in service
  concurrently in simulated time; busy-hour throughput scales with the
  pool until the arrival rate is covered;
* **batching** — each worker takes up to ``batch_size`` queued items at
  once and the batch costs ``batch_overhead + len(batch) *
  per_item_cost`` simulated seconds, amortizing per-batch work (master
  key unseal, database row lookups) exactly the way the KDC's batch
  handler amortizes it functionally.

The queue is deterministic: it draws no randomness of its own, and all
concurrency is event ordering on the seeded scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, List, NamedTuple, Optional, Sequence, TypeVar

from repro.runtime.scheduler import EventScheduler

T = TypeVar("T")

#: Wait-time histogram boundaries (simulated seconds): queue waits range
#: from sub-batch (~ms) to shed-adjacent pileups.
WAIT_BUCKETS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0,
)


class QueuedItem(NamedTuple):
    """One queue entry plus the observability it carries: the propagated
    trace context of the datagram that produced it and its enqueue time
    — what makes queue *wait* separable from *service* in a trace."""

    item: object
    trace: object
    enqueued_at: float


@dataclass(frozen=True)
class WorkQueueConfig:
    """Sizing for one service loop.

    The defaults model a late-80s server process: ~2 ms of CPU per
    request plus ~4 ms of per-batch overhead (master-key schedule, DB
    page touches) that batching amortizes.
    """

    workers: int = 1
    batch_size: int = 8
    queue_limit: int = 64
    per_item_cost: float = 0.002
    batch_overhead: float = 0.004

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.per_item_cost < 0 or self.batch_overhead < 0:
            raise ValueError("costs must be non-negative")

    def batch_cost(self, n: int) -> float:
        """Simulated service time for a batch of ``n`` items."""
        return self.batch_overhead + n * self.per_item_cost


class WorkQueue(Generic[T]):
    """One service's inbound queue + worker pool on the scheduler.

    ``process(items, waits)`` receives a batch's items and each item's
    queue wait (enqueue → the batch entering service), and is called when
    a worker *finishes* the batch — i.e. after its simulated service time
    has elapsed — so replies it produces are stamped with the right
    completion time.  An item refused by admission control is the
    caller's to answer: :meth:`submit` returns False for it.

    Given a ``metrics`` registry it keeps ``<label>.submitted_total``,
    ``.shed_total``, ``.batches_total``, ``.queue_depth`` and
    ``.wait_seconds`` under ``labels``; without one it counts nothing.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        config: WorkQueueConfig,
        process: Callable[[List[T], List[float]], None],
        label: str = "workqueue",
        metrics=None,
        labels: Optional[dict] = None,
        tracer=None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self._process = process
        self.label = label
        self._wait_span = f"{label}.wait"
        self.tracer = tracer
        self._submitted = self._shed = self._batches = None
        self._depth = self._waits = None
        if metrics is not None:
            family = metrics.family
            self._submitted = family("counter", f"{label}.submitted_total", (), labels)
            self._shed = family("counter", f"{label}.shed_total", (), labels)
            self._batches = family("counter", f"{label}.batches_total", (), labels)
            self._depth = family("gauge", f"{label}.queue_depth", (), labels)
            self._waits = family("histogram", f"{label}.wait_seconds", (), labels, WAIT_BUCKETS)
        self._queue: List[QueuedItem] = []
        self._busy_workers = 0

    # -- instrumentation ---------------------------------------------------

    def _gauge_depth(self) -> None:
        if self._depth is not None:
            self._depth[()].set(len(self._queue))

    @staticmethod
    def _count(series) -> None:
        if series is not None:
            series[()].inc()

    # -- admission ---------------------------------------------------------

    def submit(self, item: T, trace=None) -> bool:
        """Queue one item.  Returns False when the queue is at its limit
        — admission control, not an exception, because the caller still
        owes the peer an overload reply.

        ``trace`` is the propagated :class:`repro.obs.TraceContext` of
        the request this item answers; the queue emits a per-item
        ``<label>.wait`` span under it covering enqueue → service."""
        if len(self._queue) >= self.config.queue_limit:
            self._count(self._shed)
            return False
        self._queue.append(
            QueuedItem(item, trace, self.scheduler.clock.now())
        )
        self._count(self._submitted)
        self._gauge_depth()
        self._dispatch()
        return True

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def busy_workers(self) -> int:
        return self._busy_workers

    @property
    def idle(self) -> bool:
        return not self._queue and self._busy_workers == 0

    # -- the service loop --------------------------------------------------

    def _dispatch(self) -> None:
        """Hand queued items to idle workers, one batch per worker."""
        while self._queue and self._busy_workers < self.config.workers:
            batch = self._queue[: self.config.batch_size]
            del self._queue[: len(batch)]
            self._busy_workers += 1
            self._count(self._batches)
            self._gauge_depth()
            waits = self._observe_waits(batch)
            items = [entry.item for entry in batch]
            self.scheduler.after(
                self.config.batch_cost(len(batch)),
                lambda items=items, waits=waits: self._complete(items, waits),
                label=f"{self.label}.batch",
            )

    def _observe_waits(self, batch: List[QueuedItem]) -> List[float]:
        """Queue wait ends now, as the batch enters service: each item's
        wait, observed in the histogram and (for traced items) written
        as a span covering the residency, so the wait shows up in the
        trace tree next to the handler span it delayed."""
        now = self.scheduler.clock.now()
        waits = [now - entry.enqueued_at for entry in batch]
        if self._waits is not None:
            histogram = self._waits[()]
            for wait in waits:
                histogram.observe(wait)
        traced = [entry for entry in batch if entry.trace is not None]
        if self.tracer is not None and traced:
            self.tracer.record_instants(
                [self._wait_span] * len(traced),
                [entry.trace for entry in traced],
                [((),)] * len(traced),  # no attributes
                [entry.enqueued_at for entry in traced],
            )
        return waits

    def _complete(self, items: List[T], waits: List[float]) -> None:
        self._busy_workers -= 1
        try:
            self._process(items, waits)
        finally:
            # More work may have queued while this batch was in service.
            self._dispatch()

    def drop_pending(self) -> Sequence[T]:
        """Crash semantics: empty the queue (in-flight batches are the
        workers' problem — their completions must check host state).
        Returns the dropped items so the owner can fail their replies."""
        dropped = [entry.item for entry in self._queue]
        self._queue.clear()
        self._gauge_depth()
        return dropped


__all__ = ["QueuedItem", "WorkQueue", "WorkQueueConfig"]
