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

from repro.obs.metrics import HeldHandles
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


class WorkQueue(HeldHandles, Generic[T]):
    """One service's inbound queue + worker pool on the scheduler.

    ``process`` receives a batch (list of items) and is called when a
    worker *finishes* the batch — i.e. after its simulated service time
    has elapsed — so replies it produces are stamped with the right
    completion time.  ``shed`` is called synchronously at submit time
    for items refused by admission control.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        config: WorkQueueConfig,
        process: Callable[[List[T]], None],
        shed: Optional[Callable[[T], None]] = None,
        label: str = "workqueue",
        metrics=None,
        labels: Optional[dict] = None,
        tracer=None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self._process = process
        self._shed = shed
        self.label = label
        self.tracer = tracer
        self._labels = dict(labels or {})
        #: The held ``<label>.*`` handles are keyed by series suffix.
        self.metrics = metrics
        self._queue: List[QueuedItem] = []
        self._busy_workers = 0
        self.submitted = 0
        self.shed_count = 0
        self.completed = 0
        self.batches = 0
        #: Metadata of the batch currently inside the ``process``
        #: callback (aligned with the items it received), plus the time
        #: the batch entered service — how the owner annotates its spans
        #: with queue-wait and batch size.
        self.current_batch: Optional[List[QueuedItem]] = None
        self.current_batch_dispatched_at: Optional[float] = None

    # -- instrumentation ---------------------------------------------------

    def _series(self, name: str):
        """Bind ``<label>.<name>``, under the queue's labels, the first
        time it is touched."""
        series = f"{self.label}.{name}"
        if name == "queue_depth":
            handle = self._metrics.gauge(series, self._labels)
        elif name == "wait_seconds":
            handle = self._metrics.histogram(series, WAIT_BUCKETS, self._labels)
        else:
            handle = self._metrics.counter(series, self._labels)
        self._held[name] = handle
        return handle

    def _gauge_depth(self) -> None:
        if self._metrics is not None:
            (
                self._held.get("queue_depth") or self._series("queue_depth")
            ).set(len(self._queue))

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            (self._held.get(name) or self._series(name)).inc()

    # -- admission ---------------------------------------------------------

    def submit(self, item: T, trace=None) -> bool:
        """Queue one item.  Returns False (and calls ``shed``) when the
        queue is at its limit — admission control, not an exception,
        because the caller still owes the peer an overload reply.

        ``trace`` is the propagated :class:`repro.obs.TraceContext` of
        the request this item answers; the queue emits a per-item
        ``<label>.wait`` span under it covering enqueue → service."""
        if len(self._queue) >= self.config.queue_limit:
            self.shed_count += 1
            self._count("shed_total")
            if self._shed is not None:
                self._shed(item)
            return False
        self.submitted += 1
        self._queue.append(
            QueuedItem(item, trace, self.scheduler.clock.now())
        )
        self._count("submitted_total")
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
            self.batches += 1
            self._count("batches_total")
            self._gauge_depth()
            dispatched_at = self.scheduler.clock.now()
            self._observe_waits(batch, dispatched_at)
            self.scheduler.after(
                self.config.batch_cost(len(batch)),
                lambda b=batch, t=dispatched_at: self._complete(b, t),
                label=f"{self.label}.batch",
            )

    def _observe_waits(
        self, batch: List[QueuedItem], dispatched_at: float
    ) -> None:
        """Queue wait ends when the batch enters service: record a
        histogram observation and (for traced items) a non-stack span
        covering the residency, so the wait shows up in the trace tree
        next to the handler span it delayed."""
        waits = None
        if self._metrics is not None:
            waits = self._held.get("wait_seconds") or self._series("wait_seconds")
        for entry in batch:
            wait = dispatched_at - entry.enqueued_at
            if waits is not None:
                waits.observe(wait)
            if (
                self.tracer is not None
                and self.tracer.enabled
                and entry.trace is not None
            ):
                span = self.tracer.open_span(
                    f"{self.label}.wait",
                    context=entry.trace,
                    start=entry.enqueued_at,
                )
                self.tracer.close_span(span, end=dispatched_at)

    def _complete(
        self, batch: List[QueuedItem], dispatched_at: Optional[float] = None
    ) -> None:
        self._busy_workers -= 1
        self.completed += len(batch)
        self.current_batch = batch
        self.current_batch_dispatched_at = dispatched_at
        try:
            self._process([entry.item for entry in batch])
        finally:
            self.current_batch = None
            self.current_batch_dispatched_at = None
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
