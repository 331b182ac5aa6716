"""RetryPolicy / run_with_failover: bounded attempts, deadline on the
simulated clock, deterministic backoff waited out on the runtime,
endpoint cycling."""

import random

import pytest

from repro.core.retry import RetryCounts, RetryExhausted, RetryPolicy, run_with_failover
from repro.netsim import SimClock
from repro.obs import MetricsRegistry
from repro.runtime import EventScheduler


class Boom(Exception):
    pass


class TestPolicyValidation:
    def test_defaults_valid(self):
        RetryPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"deadline": 0.0},
            {"base_delay": -1.0},
            {"multiplier": 0.5},
            {"base_delay": 2.0, "max_delay": 1.0},
            {"jitter": 1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestBackoff:
    def test_exponential_with_cap(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0)
        assert policy.backoff(1) == 1.0
        assert policy.backoff(2) == 2.0
        assert policy.backoff(3) == 4.0
        assert policy.backoff(4) == 5.0  # capped

    def test_zero_base_means_immediate(self):
        assert RetryPolicy().backoff(3) == 0.0

    def test_jitter_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        rng_a, rng_b = random.Random("s"), random.Random("s")
        a = [policy.backoff(1, rng_a) for _ in range(5)]
        b = [policy.backoff(1, rng_b) for _ in range(5)]
        assert a == b
        assert all(0.5 <= d <= 1.5 for d in a)
        assert len(set(a)) > 1  # the rng actually varies the delays


class TestRunWithFailover:
    def test_first_try_success(self):
        clock = SimClock()
        runtime = EventScheduler(clock)
        result, endpoint, attempts = run_with_failover(
            RetryPolicy(), runtime, ["a", "b"], lambda e: f"ok-{e}"
        )
        assert (result, endpoint, attempts) == ("ok-a", "a", 1)

    def test_cycles_endpoints(self):
        clock = SimClock()
        runtime = EventScheduler(clock)
        tried = []

        def attempt(endpoint):
            tried.append(endpoint)
            if endpoint != "b":
                raise Boom(endpoint)
            return "ok"

        result, endpoint, attempts = run_with_failover(
            RetryPolicy(max_attempts=4), runtime, ["a", "b"], attempt,
            retry_on=(Boom,),
        )
        assert result == "ok" and endpoint == "b" and attempts == 2
        assert tried == ["a", "b"]

    def test_exhaustion_carries_attempts_and_last_error(self):
        clock = SimClock()
        runtime = EventScheduler(clock)
        with pytest.raises(RetryExhausted) as exc_info:
            run_with_failover(
                RetryPolicy(max_attempts=3), runtime, ["a"],
                lambda e: (_ for _ in ()).throw(Boom("nope")),
                retry_on=(Boom,), op="unit",
            )
        exc = exc_info.value
        assert exc.attempts == 3
        assert isinstance(exc.last_error, Boom)
        assert exc.op == "unit"

    def test_non_retryable_errors_propagate(self):
        clock = SimClock()
        runtime = EventScheduler(clock)

        def attempt(endpoint):
            raise ValueError("an answer, not an outage")

        with pytest.raises(ValueError):
            run_with_failover(
                RetryPolicy(max_attempts=3), runtime, ["a"], attempt,
                retry_on=(Boom,),
            )

    def test_backoff_advances_the_sim_clock(self):
        clock = SimClock()
        runtime = EventScheduler(clock)
        with pytest.raises(RetryExhausted):
            run_with_failover(
                RetryPolicy(max_attempts=3, base_delay=1.0, multiplier=2.0),
                runtime, ["a"],
                lambda e: (_ for _ in ()).throw(Boom()),
                retry_on=(Boom,),
            )
        # Sleeps of 1s then 2s between the three attempts.
        assert clock.now() == pytest.approx(3.0)

    def test_deadline_stops_before_overrun(self):
        clock = SimClock()
        runtime = EventScheduler(clock)
        with pytest.raises(RetryExhausted) as exc_info:
            run_with_failover(
                RetryPolicy(
                    max_attempts=10, base_delay=1.0, multiplier=2.0,
                    deadline=4.0,
                ),
                runtime, ["a"],
                lambda e: (_ for _ in ()).throw(Boom()),
                retry_on=(Boom,),
            )
        # Attempts at t=0, 1, 3; the next backoff (4s -> t=7) would
        # overrun the 4s deadline, so the run gives up after 3 attempts.
        assert exc_info.value.attempts == 3
        assert clock.now() <= 4.0

    def test_deadline_exactly_on_backoff_boundary_stops(self):
        """A retry whose backoff lands *exactly* on the deadline is not
        started: the policy promises no attempt begins at or past it."""
        clock = SimClock()
        runtime = EventScheduler(clock)
        with pytest.raises(RetryExhausted) as exc_info:
            run_with_failover(
                RetryPolicy(
                    max_attempts=5, base_delay=2.0, multiplier=1.0,
                    deadline=2.0,
                ),
                runtime, ["a"],
                lambda e: (_ for _ in ()).throw(Boom()),
                retry_on=(Boom,),
            )
        # elapsed(0) + backoff(2.0) == deadline(2.0): boundary counts
        # as overrun, so only the initial attempt ran and no time passed.
        assert exc_info.value.attempts == 1
        assert clock.now() == 0.0

    def test_deadline_just_past_boundary_allows_the_retry(self):
        clock = SimClock()
        runtime = EventScheduler(clock)
        with pytest.raises(RetryExhausted) as exc_info:
            run_with_failover(
                RetryPolicy(
                    max_attempts=2, base_delay=2.0, multiplier=1.0,
                    deadline=2.5,
                ),
                runtime, ["a"],
                lambda e: (_ for _ in ()).throw(Boom()),
                retry_on=(Boom,),
            )
        assert exc_info.value.attempts == 2
        assert clock.now() == pytest.approx(2.0)

    def test_same_seed_failover_trajectory_is_identical(self):
        """With jittered backoff, two same-seed runs visit the same
        endpoints at the same simulated instants; the endpoint *order*
        is pure round-robin regardless of seed."""

        def trajectory(seed):
            clock = SimClock()
            runtime = EventScheduler(clock)
            visits = []

            def attempt(endpoint):
                visits.append((endpoint, clock.now()))
                raise Boom(endpoint)

            with pytest.raises(RetryExhausted):
                run_with_failover(
                    RetryPolicy(max_attempts=6, base_delay=1.0, jitter=0.5),
                    runtime, ["master", "slave1", "slave2"], attempt,
                    rng=random.Random(seed), retry_on=(Boom,),
                )
            return visits

        a, b, c = trajectory(42), trajectory(42), trajectory(43)
        assert a == b
        assert [endpoint for endpoint, _ in a] == [
            "master", "slave1", "slave2", "master", "slave1", "slave2"
        ]
        # A different seed keeps the order but shifts the jittered times.
        assert [e for e, _ in c] == [e for e, _ in a]
        assert [t for _, t in c] != [t for _, t in a]

    def test_metrics_counted(self):
        clock = SimClock()
        runtime = EventScheduler(clock)
        metrics = MetricsRegistry()
        counts = RetryCounts(metrics)
        with pytest.raises(RetryExhausted):
            run_with_failover(
                RetryPolicy(max_attempts=2), runtime, ["a"],
                lambda e: (_ for _ in ()).throw(Boom()),
                retry_on=(Boom,), counts=counts, op="unit",
            )
        run_with_failover(
            RetryPolicy(), runtime, ["a"], lambda e: "ok",
            counts=counts, op="unit",
        )
        assert metrics.total("retry.attempts_total", op="unit") == 3
        assert metrics.total("retry.exhausted_total", op="unit") == 1

    def test_empty_endpoints_rejected(self):
        with pytest.raises(ValueError):
            run_with_failover(
                RetryPolicy(), EventScheduler(SimClock()), [], lambda e: e
            )

    def test_backoff_runs_the_realms_events(self):
        """A backoff is the runtime's ``run_for``: events due while the
        caller waits run at their own instants, not after it."""
        clock = SimClock()
        runtime = EventScheduler(clock)
        ran = []
        runtime.at(0.25, lambda: ran.append(clock.now()))
        with pytest.raises(RetryExhausted):
            run_with_failover(
                RetryPolicy(max_attempts=2, base_delay=0.5),
                runtime, ["a"],
                lambda e: (_ for _ in ()).throw(Boom()),
                retry_on=(Boom,),
            )
        assert ran == [0.25]
        assert clock.now() == pytest.approx(0.5)
