"""Bounded, deadline-aware retry with deterministic backoff.

The 1988 clients ran send-and-wait over UDP: a lost datagram meant a
retransmission, a dead master meant trying a slave (Figure 10).  This
module centralises that behaviour for every request/response client in
the reproduction — the Kerberos client's AS/TGS exchanges, the KDBM
admin client, kprop transfers, and the NFS/mountd clients — so each one
gets the same well-behaved shape:

* a bounded number of attempts, cycling through an endpoint list
  (master first, then slaves — read-only AS/TGS traffic may land on any
  KDC; admin writes pass a one-element list because the KDBM "must run
  on the machine housing the Kerberos database");
* exponential backoff between attempts, with *deterministic* jitter
  drawn from a caller-seeded RNG and waited out on the event runtime
  (the rest of the realm keeps running meanwhile) — chaos runs stay
  reproducible bit-for-bit;
* an optional deadline in simulated seconds: no retry is started whose
  backoff would overrun it.

Retransmission safety is the caller's job and the reason ``attempt``
callables are invoked fresh each time: a verbatim TGS or AP resend
would be swallowed by the server's replay cache, so anything carrying
an authenticator must rebuild it per attempt (Bilal & Kang's
time-assisted analysis and Dua et al.'s replay-prevention work both
hinge on this coupling of retries to timestamp freshness).

Metrics (when a registry is supplied): ``retry.attempts_total{op=...}``
counts every attempt including the first; ``retry.exhausted_total{op=...}``
counts runs that gave up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


class RetryExhausted(Exception):
    """Every allowed attempt failed (or the deadline ran out)."""

    def __init__(
        self,
        op: str,
        attempts: int,
        elapsed: float,
        last_error: Optional[BaseException],
    ) -> None:
        self.op = op
        self.attempts = attempts
        self.elapsed = elapsed
        self.last_error = last_error
        super().__init__(
            f"{op}: {attempts} attempt(s) over {elapsed:.3f}s simulated, "
            f"last error: {last_error}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try: attempts, deadline, and backoff shape.

    ``base_delay=0`` (the default) retries immediately — the legacy
    tight-loop behaviour.  With a base delay, retry *n* backs off
    ``base_delay * multiplier**(n-1)`` capped at ``max_delay``, then
    scaled by a jitter factor uniform in ``[1-jitter, 1+jitter]``.
    """

    max_attempts: int = 3
    deadline: Optional[float] = None
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay {self.max_delay} below base_delay {self.base_delay}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff(self, attempt: int, rng=None) -> float:
        """Delay before retry number ``attempt`` (1 = after the first
        failure).  Deterministic for a given seeded ``rng``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        if self.base_delay <= 0:
            return 0.0
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


def run_with_failover(
    policy: RetryPolicy,
    runtime,
    endpoints: Sequence,
    attempt: Callable,
    *,
    rng=None,
    metrics=None,
    op: str = "rpc",
    retry_on: Tuple[type, ...] = (Exception,),
):
    """Run ``attempt(endpoint)`` until one succeeds, cycling endpoints.

    ``runtime`` is the realm's :class:`~repro.runtime.scheduler.
    EventScheduler`: each backoff is ``runtime.run_for(delay)``, so the
    realm's events keep running while this caller waits.  Exceptions in
    ``retry_on`` are retried; anything else propagates immediately (a
    KDC *error reply* is an answer, not an outage).

    Returns ``(result, endpoint, attempts)``; raises
    :class:`RetryExhausted` when attempts or deadline run out.
    """
    if not endpoints:
        raise ValueError(f"{op}: no endpoints to try")
    clock = runtime.clock
    start = clock.now()
    last_error: Optional[BaseException] = None
    attempts = 0
    while attempts < policy.max_attempts:
        endpoint = endpoints[attempts % len(endpoints)]
        attempts += 1
        if metrics is not None:
            metrics.counter("retry.attempts_total", {"op": op}).inc()
        try:
            return attempt(endpoint), endpoint, attempts
        except retry_on as exc:
            last_error = exc
        if attempts >= policy.max_attempts:
            break
        delay = policy.backoff(attempts, rng)
        if (
            policy.deadline is not None
            and (clock.now() - start) + delay >= policy.deadline
        ):
            break
        if delay:
            runtime.run_for(delay)
    if metrics is not None:
        metrics.counter("retry.exhausted_total", {"op": op}).inc()
    raise RetryExhausted(
        op=op,
        attempts=attempts,
        elapsed=clock.now() - start,
        last_error=last_error,
    )


__all__ = ["RetryExhausted", "RetryPolicy", "run_with_failover"]
