"""Exp RT — the event runtime at scale: KDC worker-pool scaling.

Section 9's deployment question, asked of the new runtime: when 9 AM
hits a cluster and every workstation fires its AS request into a
fraction of a second, how does KDC throughput scale with the service
loop's worker pool?  The sweep drives an open-loop
:meth:`repro.workload.AthenaWorkload.login_burst` (arrivals outpace
service — queueing, batching, and admission-control shedding are all in
play) across workstation counts and worker counts.

Shape to hold: growing the pool 1 → 4 workers buys at least 1.5x
completed-login throughput at every burst size, and one seed reproduces
the same burst — same outcomes, same completion instants — bit for bit
(the ``digest`` equality).
"""

from repro.netsim import Network
from repro.obs import write_json_snapshot
from repro.realm import Realm, RealmTopology
from repro.runtime import WorkQueueConfig
from repro.workload import AthenaWorkload

from benchmarks.bench_util import REALM

SEED = 1988
N_USERS = 256
#: Burst sizes: a cluster and a whole building (sampled Section 9 scale).
STATION_COUNTS = (64, 128)
WORKER_COUNTS = (1, 2, 4)
#: All arrivals land inside this window (seconds) — far faster than one
#: worker can serve them, so the queue genuinely builds.
BURST_WINDOW = 0.05


def run_burst(n_stations: int, workers: int):
    """One fresh world per configuration; returns the BurstResult and
    the network (for the metrics snapshot)."""
    net = Network(seed=SEED)
    realm = Realm(
        net, REALM, seed=b"runtime-scale",
        topology=RealmTopology(kdc_queue=WorkQueueConfig(workers=workers)),
    )
    workload = AthenaWorkload(realm, n_users=N_USERS, n_services=0, seed=SEED)
    stations = workload.workstations(n_stations, spread_kdcs=False)
    result = workload.login_burst(stations, window=BURST_WINDOW)
    return result, net


def test_bench_runtime_worker_scaling(benchmark, tmp_path):
    sweep = {}
    last_net = None
    print("\nExp RT — login-burst throughput (completed logins / sim-second):")
    for n_stations in STATION_COUNTS:
        for workers in WORKER_COUNTS:
            result, net = run_burst(n_stations, workers)
            sweep[(n_stations, workers)] = result
            last_net = net
            print(
                f"  {n_stations:4d} stations x {workers} worker(s): "
                f"{result.completed:4d} completed, "
                f"{result.overloaded:3d} shed, "
                f"makespan {result.makespan * 1e3:7.2f} ms, "
                f"throughput {result.throughput:8.1f}/s"
            )

    # Every posted request is accounted for, whatever its fate.
    for (n_stations, _), result in sweep.items():
        assert result.posted == n_stations
        assert (
            result.completed + result.overloaded + result.failed
            == result.posted
        )
        assert result.completed > 0

    # The tentpole acceptance gate: 1 -> 4 workers buys >= 1.5x
    # throughput at every burst size.
    speedups = {}
    for n_stations in STATION_COUNTS:
        base = sweep[(n_stations, 1)].throughput
        quad = sweep[(n_stations, 4)].throughput
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

    snapshot = tmp_path / "runtime_scale.json"
    snap = write_json_snapshot(
        last_net.metrics,
        snapshot,
        now=last_net.clock.now(),
        extra={
            "experiment": "RT",
            "burst_window_s": BURST_WINDOW,
            "results": {
                f"{n}x{w}": {
                    "completed": r.completed,
                    "overloaded": r.overloaded,
                    "failed": r.failed,
                    "makespan_s": round(r.makespan, 6),
                    "throughput_per_s": round(r.throughput, 1),
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
    reproduces the burst exactly — outcome counts and the
    completion-instant digest both match."""
    a, _ = run_burst(STATION_COUNTS[-1], 4)
    b, _ = run_burst(STATION_COUNTS[-1], 4)
    assert a.digest == b.digest
    assert (a.completed, a.overloaded, a.failed) == (
        b.completed, b.overloaded, b.failed
    )
    assert a.makespan == b.makespan
