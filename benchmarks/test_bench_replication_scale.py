"""Exp RS — incremental propagation at scale: delta vs. full dump.

The paper propagates "the database ... in its entirety" every hour; at
Athena's scale (Section 9: thousands of principals) that is megabytes
per slave per round regardless of how little changed.  The update
journal + delta protocol send only what changed.  This benchmark sweeps
database size (1k / 10k / 50k principals) and churn (low / high) and
gates the claim:

* **bytes**: at 50k principals and low churn, a delta round moves at
  least 10x fewer bytes over the wire than a full-dump round;
* **convergence**: after every round, every slave's store digest equals
  the master's — cheaper must not mean approximate;
* **determinism**: the same seed reproduces the same digests and the
  same byte counts exactly.
"""

import hashlib

from repro.netsim import Network
from repro.obs import write_json_snapshot
from repro.principal import Principal
from repro.realm import Realm, RealmTopology

from benchmarks.bench_util import REALM

SIZES = [1_000, 10_000, 50_000]
N_SLAVES = 2
SEED = 1988
#: Principals touched per low-churn round — a realistic trickle of
#: password changes between rounds.
LOW_CHURN = 10
#: Fraction of the database touched per high-churn round.
HIGH_CHURN_FRACTION = 0.02
#: The headline gate: delta moves >= 10x fewer bytes at low churn.
BYTES_GATE = 10.0


def build_realm(n_users: int, seed: int = SEED) -> Realm:
    net = Network(seed=seed)
    realm = Realm(
        net, REALM, seed=b"repl-scale",
        topology=RealmTopology(slaves_per_shard=N_SLAVES),
    )
    for i in range(n_users):
        realm.add_user(f"user{i:05d}", f"pw{i}")
    return realm


def store_digest(db) -> str:
    h = hashlib.sha256()
    for key, value in db.store.items():
        h.update(key.encode())
        h.update(value)
    return h.hexdigest()


def assert_converged(realm: Realm) -> str:
    digest = store_digest(realm.db)
    for slave in realm.slaves:
        assert store_digest(slave.db) == digest
    return digest


def wire_bytes(realm: Realm) -> float:
    return realm.net.metrics.total("kprop.bytes_total")


def churn(realm: Realm, n_users: int, count: int, round_no: int) -> None:
    """Touch ``count`` distinct principals (password changes — the
    dominant real mutation)."""
    for i in range(count):
        idx = (round_no * count + i) % n_users
        realm.db.change_key(
            Principal(f"user{idx:05d}", "", REALM),
            new_password=f"new-{round_no}-{i}",
        )


def measure_size(n_users: int, seed: int = SEED) -> dict:
    realm = build_realm(n_users, seed=seed)

    # Baseline: one forced full-dump round (the paper's only mode).
    before = wire_bytes(realm)
    full_result = realm.propagate(full=True)
    assert full_result.all_ok and full_result.fulls == N_SLAVES
    full_bytes = wire_bytes(realm) - before
    assert_converged(realm)

    # Low churn: a trickle of changes, then a delta round.
    churn(realm, n_users, LOW_CHURN, round_no=1)
    before = wire_bytes(realm)
    low_result = realm.propagate()
    assert low_result.all_ok and low_result.deltas == N_SLAVES
    low_bytes = wire_bytes(realm) - before
    digest = assert_converged(realm)

    # High churn: a mass change (e.g. semester password resets).
    high_count = max(LOW_CHURN, int(n_users * HIGH_CHURN_FRACTION))
    churn(realm, n_users, high_count, round_no=2)
    before = wire_bytes(realm)
    high_result = realm.propagate()
    assert high_result.all_ok and high_result.deltas == N_SLAVES
    high_bytes = wire_bytes(realm) - before
    assert_converged(realm)

    return {
        "principals": n_users,
        "slaves": N_SLAVES,
        "full_bytes": int(full_bytes),
        "low_churn_changes": LOW_CHURN,
        "low_churn_delta_bytes": int(low_bytes),
        "low_churn_ratio": round(full_bytes / low_bytes, 1),
        "high_churn_changes": high_count,
        "high_churn_delta_bytes": int(high_bytes),
        "high_churn_ratio": round(full_bytes / high_bytes, 1),
        "digest": digest,
    }


def test_bench_replication_scale(tmp_path):
    rows = [measure_size(n) for n in SIZES]

    print("\nExp RS — delta vs. full-dump propagation "
          f"({N_SLAVES} slaves, gate >= {BYTES_GATE:.0f}x at low churn)")
    print(f"  {'principals':>10}  {'full':>12}  {'delta(low)':>12}  "
          f"{'ratio':>8}  {'delta(high)':>12}  {'ratio':>8}")
    for row in rows:
        print(f"  {row['principals']:>10}  {row['full_bytes']:>12}  "
              f"{row['low_churn_delta_bytes']:>12}  "
              f"{row['low_churn_ratio']:>7.1f}x  "
              f"{row['high_churn_delta_bytes']:>12}  "
              f"{row['high_churn_ratio']:>7.1f}x")

    # The headline gate, at the largest size and at every other one.
    for row in rows:
        assert row["low_churn_ratio"] >= BYTES_GATE, (
            f"{row['principals']} principals: delta moved only "
            f"{row['low_churn_ratio']}x fewer bytes (gate {BYTES_GATE}x)"
        )
    # Even a mass change never costs more than the dump it replaces.
    for row in rows:
        assert row["high_churn_delta_bytes"] <= row["full_bytes"]

    # Same-seed determinism: identical digests and byte counts.
    rerun = measure_size(SIZES[0])
    assert rerun == rows[0], "same seed must reproduce the same run exactly"
    print("  same-seed rerun at "
          f"{SIZES[0]} principals: digests and byte counts identical")

    realm = build_realm(SIZES[0])  # fresh registry for the snapshot
    realm.propagate()
    snapshot = tmp_path / "replication_scale.json"
    write_json_snapshot(
        realm.net.metrics,
        snapshot,
        now=realm.net.clock.now(),
        extra={
            "experiment": "RS",
            "gates": {"low_churn_bytes_min_ratio": BYTES_GATE},
            "sweep": rows,
        },
    )
    print(f"  snapshot: {snapshot}")
