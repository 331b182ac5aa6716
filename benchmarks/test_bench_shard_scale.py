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

from dataclasses import dataclass, replace
from typing import ClassVar

import pytest

import repro.scenarios as scenarios
from repro.obs import write_json_snapshot
from repro.realm import RealmTopology
from repro.runtime.workqueue import WorkQueueConfig
from repro.scenarios import SloSpec
from repro.scenarios.engine import START, Rebalance

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
REALM = "ATHENA.MIT.EDU"


def fill(world) -> None:
    """The database bulk: principals nobody drives, up to N_PRINCIPALS."""
    for i in range(N_PRINCIPALS - N_DRIVE):
        world.realm.add_user(f"filler{i:06d}", f"pw{i}")


def topology(p) -> RealmTopology:
    # Enough queue depth that the burst is never shed — the scaling
    # curve measures service rate, not admission control (that story is
    # Exp RT's).
    return RealmTopology(
        shards=int(p["n_shards"]),
        kdc_queue=WorkQueueConfig(workers=KDC_WORKERS, queue_limit=2 * N_DRIVE),
    )


#: One topology cell: ``login_burst`` over N_PRINCIPALS registered,
#: N_DRIVE of them drivable, every station routed to its user's shard.
CELL = replace(
    scenarios.get("login_burst"),
    name="shard_scale_cell",
    defaults={"n_shards": 1, "n_users": N_DRIVE, "n_stations": N_DRIVE,
              "window": BURST_WINDOW},
    slos=(SloSpec("success_rate", "min", 1.0, "no login lost in the burst"),),
    topology=topology,
    daemons=(fill,),
)
@dataclass(frozen=True)
class FreshViews:
    """Due at once: every station drops the KDC view it read at boot
    and locates afresh at its login, so the gate rates the move itself.
    (A view cached before the flip costs a referral — the campaign
    row's own drill.)"""

    at: ClassVar[float] = 0.0

    def fire(self, world) -> None:
        for ws in world.stations:
            ws.client.locator_for(REALM).refresh()


#: 200 paced logins over 10 s on a 2-shard cell, with a live
#: ``move_range`` of half of shard 0's drivers a third of the way in.
REBALANCE = replace(
    scenarios.get("shard_rebalance_under_load"),
    defaults={"n_shards": 2, "n_users": N_DRIVE, "n_stations": 200,
              "window": 10.0, "move_at": 10.0 / 3},
    topology=topology,
    daemons=(fill,),
    faults=lambda p: (FreshViews(), Rebalance(START + p["move_at"])),
)
#: The same logins, same seed, with no move: the steady-state baseline.
STEADY = replace(REBALANCE, slos=REBALANCE.slos[:2], faults=lambda p: (FreshViews(),))

_cells = {}


def cell(shards: int):
    if shards not in _cells:
        _cells[shards] = scenarios.run(CELL, SEED, n_shards=shards)
    return _cells[shards]


def burst_throughput(result) -> float:
    assert result.passed, (
        f"{result.outcomes} — logins lost in the burst"
    )
    return result.outcomes["ok"] / result.makespan


def test_bench_shard_scale_out():
    throughputs = {shards: burst_throughput(cell(shards)) for shards in CELLS}
    scale_x = throughputs[4] / throughputs[1]
    print("\nExp SH — shard scale-out (sim req/s):")
    for shards in CELLS:
        print(f"  {shards} shard(s): {throughputs[shards]:8.1f} req/s")
    print(f"  1→4 scaling: {scale_x:.2f}x (gate: ≥{SCALE_GATE * 4:.1f}x)")
    assert scale_x >= SCALE_GATE * 4, (
        f"4-shard cell scaled only {scale_x:.2f}x over 1 shard "
        f"(need ≥ {SCALE_GATE * 4:.1f}x)"
    )
    test_bench_shard_scale_out.result = (throughputs, scale_x)


def test_bench_rebalance_p99():
    steady = scenarios.run(STEADY, SEED)
    assert steady.outcomes == {"ok": 200}, steady.outcomes
    moved = scenarios.run(REBALANCE, SEED)
    assert moved.outcomes == {"ok": 200}, (
        f"logins failed during the live rebalance: {moved.outcomes}"
    )
    assert moved.notes["entries_moved"] >= 1, "the rebalance moved nothing"
    steady_p99, move_p99 = steady.latency_p99, moved.latency_p99
    ratio = move_p99 / steady_p99 if steady_p99 else 1.0
    print("\nExp SH — live rebalance impact:")
    print(f"  steady-state login p99: {steady_p99 * 1000:7.1f} ms")
    print(f"  mid-rebalance    p99: {move_p99 * 1000:7.1f} ms "
          f"({ratio:.2f}x, gate ≤{P99_GATE}x)")
    print(f"  records streamed: {moved.notes['entries_moved']}, "
          f"epoch → {moved.notes['ring_epoch']}")
    assert move_p99 <= P99_GATE * steady_p99, (
        f"rebalance p99 {move_p99:.4f}s exceeds "
        f"{P99_GATE}x steady {steady_p99:.4f}s"
    )
    test_bench_rebalance_p99.result = (steady_p99, move_p99, ratio)


def test_bench_same_seed_byte_identical():
    """A fresh same-seed 2-shard cell: identical ring record and
    identical burst summary, digest included, byte for byte."""
    a, b = cell(2), scenarios.run(CELL, SEED, n_shards=2)
    assert a.world.realm.ring.to_record(REALM) == b.world.realm.ring.to_record(REALM)
    assert a.summary() == b.summary(), "same seed, different burst summaries"
    print(f"\nExp SH — determinism: burst digest {a.digest[:16]}… "
          f"reproduced byte-identically")
    test_bench_same_seed_byte_identical.result = a.digest


def test_bench_write_snapshot(tmp_path):
    throughputs, scale_x = getattr(test_bench_shard_scale_out, "result", ({}, 0.0))
    steady_p99, move_p99, ratio = getattr(
        test_bench_rebalance_p99, "result", (0.0, 0.0, 0.0)
    )
    digest = getattr(test_bench_same_seed_byte_identical, "result", "")
    net = cell(max(CELLS)).world.net
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
