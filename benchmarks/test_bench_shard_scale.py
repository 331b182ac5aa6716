"""Exp SH — sharding the principal database: does the realm scale out?

The paper sizes a realm at Athena's thousands of users on one master;
the ROADMAP asks for a million behind the same realm name.  This
benchmark populates a sharded realm at the 100k-principal floor and
gates the three claims of the sharding design (PR 9):

* **scale-out**: open-loop AS throughput (simulated req/s, worker-pool
  cost model) grows ≥ ``SCALE_GATE``× linear from 1 shard to 4 — the
  ring must actually spread the load, not serialize it;
* **live rebalance**: a ``move_range`` streaming records mid-storm
  keeps login p99 within ``P99_GATE``× the steady-state p99, and no
  login fails — double-serve plus referral repair, measured;
* **determinism**: the same seed reproduces the same burst digest
  byte-for-byte on the same topology — the ring is a pure function.

Throughput is simulated-time throughput: the KDC worker pools charge
their cost model on the event clock, so N shards genuinely overlap in
sim time while the harness stays single-threaded.
"""

import pytest

from repro.netsim import Network
from repro.obs import write_json_snapshot
from repro.realm import ShardedRealm
from repro.realm.sharding import hash_point
from repro.workload import AthenaWorkload

from benchmarks.bench_util import REALM

pytestmark = [pytest.mark.perf, pytest.mark.shard]

#: Registered principals per cell — the ISSUE's floor (scale the cell
#: to 1M by raising this; the harness is O(N) in it).
N_PRINCIPALS = 100_000
#: Login-driving users/stations (sampled; the rest are database bulk).
N_DRIVE = 1_000
#: Shard counts swept for the scale-out curve.
CELLS = (1, 2, 4)
#: Worker pool per shard KDC — the unit of per-shard capacity (2
#: workers × batch cost model ≈ 800 req/s per shard).
KDC_WORKERS = 2
#: Burst arrival window (sim s): everyone arrives (nearly) at once, so
#: makespan is service-limited — that is what the scaling curve rates.
BURST_WINDOW = 0.1
#: 4-shard throughput must be ≥ this fraction of linear (4×) scaling.
SCALE_GATE = 0.7
#: Rebalance p99 must stay within this factor of steady-state p99.
P99_GATE = 2.0
SEED = 1988

_cells = {}


def build_cell(shards: int, seed: int = SEED):
    """One topology cell: N_PRINCIPALS registered, N_DRIVE drivable."""
    from repro.runtime.workqueue import WorkQueueConfig

    net = Network(seed=seed, latency=0.01)
    # An explicit queue config: enough queue depth that the burst is
    # never shed — the scaling curve measures service rate, not
    # admission control (that story is Exp RT's).
    realm = ShardedRealm(
        net, REALM, shards=shards,
        kdc_queue=WorkQueueConfig(
            workers=KDC_WORKERS, queue_limit=2 * N_DRIVE,
        ),
        seed=b"shard-scale",
    )
    workload = AthenaWorkload(
        realm, n_users=N_DRIVE, n_services=2, seed=seed
    )
    for i in range(N_PRINCIPALS - N_DRIVE):
        realm.add_user(f"filler{i:06d}", f"pw{i}")
    return net, realm, workload


def cell(shards: int):
    if shards not in _cells:
        _cells[shards] = build_cell(shards)
    return _cells[shards]


def burst_throughput(net, realm, workload):
    stations = workload.workstations(N_DRIVE)
    burst = workload.login_burst(stations, window=BURST_WINDOW)
    assert burst.completed == burst.posted, (
        f"{burst.posted - burst.completed} logins lost in the burst"
    )
    return burst.completed / burst.makespan, burst.digest


def paced_login_p99(net, realm, workload, n: int, tag: str, mover=None):
    """Closed-loop kinit latencies for ``n`` stations paced over a
    window, optionally with a live ``move_range`` scheduled mid-way;
    returns (p99, failures)."""
    from repro.scenarios.engine import percentile

    stations = [realm.workstation(f"ws-{tag}{i}") for i in range(n)]
    latencies, failures = [], []
    start = net.clock.now()
    window = 10.0

    def login(ws, username, password):
        def job():
            begun = net.clock.now()
            try:
                ws.client.kdestroy()
                ws.client.kinit(username, password)
                latencies.append(net.clock.now() - begun)
            except Exception as exc:
                failures.append(exc)
        return job

    for i, ws in enumerate(stations):
        username, password = workload.random_user()
        net.runtime.at(
            start + (i / n) * window, login(ws, username, password),
            label="bench.login",
        )
    if mover is not None:
        net.runtime.at(start + window / 3, mover, label="bench.rebalance")
    net.runtime.run_until_idle()
    return percentile(latencies, 0.99), failures


def half_of_shard0(realm, workload):
    """The range holding ~half of shard 0's driving users."""
    points = sorted(
        hash_point(username)
        for username, _pw in workload.users
        if realm.shard_for_key(username) == 0
    )
    return points[0], points[len(points) // 2] + 1


def test_bench_shard_scale_out():
    throughputs = {}
    digests = {}
    for shards in CELLS:
        net, realm, workload = cell(shards)
        throughputs[shards], digests[shards] = burst_throughput(
            net, realm, workload
        )
    scale_x = throughputs[4] / throughputs[1]
    print("\nExp SH — shard scale-out (sim req/s):")
    for shards in CELLS:
        print(f"  {shards} shard(s): {throughputs[shards]:8.1f} req/s")
    print(f"  1→4 scaling: {scale_x:.2f}x (gate: ≥{SCALE_GATE * 4:.1f}x)")
    assert scale_x >= SCALE_GATE * 4, (
        f"4-shard cell scaled only {scale_x:.2f}x over 1 shard "
        f"(need ≥ {SCALE_GATE * 4:.1f}x)"
    )
    test_bench_shard_scale_out.result = (throughputs, digests, scale_x)


def test_bench_rebalance_p99():
    net, realm, workload = cell(2)
    steady_p99, steady_failures = paced_login_p99(
        net, realm, workload, 200, tag="steady"
    )
    assert not steady_failures, steady_failures[:3]

    lo, hi = half_of_shard0(realm, workload)
    moved = {}

    def mover():
        moved["result"] = realm.move_range(lo, hi, 1)

    move_p99, move_failures = paced_login_p99(
        net, realm, workload, 200, tag="move", mover=mover
    )
    assert not move_failures, (
        f"{len(move_failures)} logins failed during the live rebalance: "
        f"{move_failures[:3]}"
    )
    assert moved["result"].moved >= 1, "the rebalance moved nothing"
    ratio = move_p99 / steady_p99 if steady_p99 else 1.0
    print("\nExp SH — live rebalance impact:")
    print(f"  steady-state login p99: {steady_p99 * 1000:7.1f} ms")
    print(f"  mid-rebalance    p99: {move_p99 * 1000:7.1f} ms "
          f"({ratio:.2f}x, gate ≤{P99_GATE}x)")
    print(f"  records streamed: {moved['result'].moved}, "
          f"epoch → {moved['result'].epoch}")
    assert move_p99 <= P99_GATE * steady_p99, (
        f"rebalance p99 {move_p99:.4f}s exceeds "
        f"{P99_GATE}x steady {steady_p99:.4f}s"
    )
    test_bench_rebalance_p99.result = (steady_p99, move_p99, ratio)


def test_bench_same_seed_byte_identical():
    """Two fresh same-seed 2-shard cells: identical ring record and
    identical burst digest, byte for byte."""
    net_a, realm_a, workload_a = build_cell(2)
    net_b, realm_b, workload_b = build_cell(2)
    assert realm_a.ring.to_record(REALM) == realm_b.ring.to_record(REALM)
    _thr_a, digest_a = burst_throughput(net_a, realm_a, workload_a)
    _thr_b, digest_b = burst_throughput(net_b, realm_b, workload_b)
    assert digest_a == digest_b, "same seed, different burst digests"
    print(f"\nExp SH — determinism: burst digest {digest_a[:16]}… "
          f"reproduced byte-identically")
    test_bench_same_seed_byte_identical.result = digest_a


def test_bench_write_snapshot(tmp_path):
    throughputs, digests, scale_x = getattr(
        test_bench_shard_scale_out, "result", ({}, {}, 0.0)
    )
    steady_p99, move_p99, ratio = getattr(
        test_bench_rebalance_p99, "result", (0.0, 0.0, 0.0)
    )
    digest = getattr(test_bench_same_seed_byte_identical, "result", "")
    net, _realm, _workload = cell(max(CELLS))
    summary = {
        "principals": N_PRINCIPALS,
        "workers_per_shard": KDC_WORKERS,
        "throughput_req_s": {
            str(shards): round(thr, 1)
            for shards, thr in throughputs.items()
        },
        "scale_1_to_4": round(scale_x, 3),
        "scale_gate": SCALE_GATE * 4,
        "steady_p99_s": round(steady_p99, 6),
        "rebalance_p99_s": round(move_p99, 6),
        "p99_ratio": round(ratio, 3),
        "p99_gate": P99_GATE,
        "burst_digest": digest,
    }
    snapshot = tmp_path / "shard_scale.json"
    write_json_snapshot(
        net.metrics, snapshot, now=net.clock.now(), extra=summary
    )
    print(f"\nwrote {snapshot}: {summary}")
