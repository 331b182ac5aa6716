"""Exp RT — the event runtime at scale: KDC worker-pool scaling.

Section 9's deployment question, asked of the new runtime: when 9 AM
hits a cluster and every workstation fires its AS request into a
fraction of a second, how does KDC throughput scale with the service
loop's worker pool?  The sweep runs the ``login_burst`` campaign row
(open loop: arrivals outpace service — queueing, batching, and
admission-control shedding are all in play) across workstation counts
and worker counts, each cell an override of the row.

Shape to hold: growing the pool 1 → 4 workers buys at least 1.5x
completed-login throughput at every burst size, and one seed reproduces
the same burst — same outcomes, same completion instants — bit for bit
(the ``digest`` equality).
"""

import repro.scenarios as scenarios
from repro.obs import write_json_snapshot

SEED = 1988
N_USERS = 256
#: Burst sizes: a cluster and a whole building (sampled Section 9 scale).
STATION_COUNTS = (64, 128)
WORKER_COUNTS = (1, 2, 4)
#: All arrivals land inside this window (seconds) — far faster than one
#: worker can serve them, so the queue genuinely builds.
BURST_WINDOW = 0.05
SHED = "refused:KDC_OVERLOADED"


def run_burst(n_stations: int, workers: int):
    """One fresh world per configuration."""
    return scenarios.run(
        "login_burst", SEED, n_users=N_USERS, n_stations=n_stations,
        workers=workers, window=BURST_WINDOW,
    )


def throughput(result) -> float:
    """Completed logins per simulated second, first arrival to drain."""
    return result.outcomes.get("ok", 0) / result.makespan


def test_bench_runtime_worker_scaling(benchmark, tmp_path):
    sweep = {}
    print("\nExp RT — login-burst throughput (completed logins / sim-second):")
    for n_stations in STATION_COUNTS:
        for workers in WORKER_COUNTS:
            result = sweep[(n_stations, workers)] = run_burst(n_stations, workers)
            print(
                f"  {n_stations:4d} stations x {workers} worker(s): "
                f"{result.outcomes.get('ok', 0):4d} completed, "
                f"{result.outcomes.get(SHED, 0):3d} shed, "
                f"makespan {result.makespan * 1e3:7.2f} ms, "
                f"throughput {throughput(result):8.1f}/s"
            )

    # Every posted request is accounted for, and the only failure is
    # the typed shed.
    for (n_stations, _), result in sweep.items():
        assert sum(result.outcomes.values()) == n_stations
        assert set(result.outcomes) <= {"ok", SHED}
        assert result.outcomes["ok"] > 0

    # The tentpole acceptance gate: 1 -> 4 workers buys >= 1.5x
    # throughput at every burst size.
    speedups = {}
    for n_stations in STATION_COUNTS:
        base = throughput(sweep[(n_stations, 1)])
        quad = throughput(sweep[(n_stations, 4)])
        speedups[n_stations] = quad / base
        print(f"  {n_stations:4d} stations: 1->4 worker speedup "
              f"{speedups[n_stations]:.2f}x")
        assert quad >= 1.5 * base, (
            f"{n_stations} stations: 4 workers gave only "
            f"{quad / base:.2f}x over 1 worker"
        )

    # Timing hook (wall-clock cost of one mid-size configuration).
    benchmark.pedantic(
        lambda: run_burst(STATION_COUNTS[0], 2), rounds=2, iterations=1
    )

    net = sweep[(STATION_COUNTS[-1], WORKER_COUNTS[-1])].world.net
    snapshot = tmp_path / "runtime_scale.json"
    snap = write_json_snapshot(
        net.metrics,
        snapshot,
        now=net.clock.now(),
        extra={
            "experiment": "RT",
            "burst_window_s": BURST_WINDOW,
            "results": {
                f"{n}x{w}": {
                    "outcomes": r.outcomes,
                    "makespan_s": round(r.makespan, 6),
                    "throughput_per_s": round(throughput(r), 1),
                    "digest": r.digest,
                }
                for (n, w), r in sweep.items()
            },
            "speedup_1_to_4": {
                str(n): round(s, 3) for n, s in speedups.items()
            },
        },
    )
    counter_names = {e["name"] for e in snap["counters"]}
    assert {"kdc.queue.batches_total", "runtime.events_run_total"} <= counter_names
    print(f"  snapshot: {snapshot}")


def test_bench_runtime_same_seed_bit_identical():
    """Determinism gate: repeating one configuration with one seed
    reproduces the burst exactly — the whole summary, the
    completion-instant digest included."""
    a = run_burst(STATION_COUNTS[-1], 4)
    b = run_burst(STATION_COUNTS[-1], 4)
    assert a.summary() == b.summary()
