"""Exp F13 — Figure 13: database propagation.

Times a full kprop round (dump + master-key checksum + transfer +
verify + load on every slave) at a few database sizes, and regenerates
the figure's guarantees: tampered transfers rejected, slaves converge,
staleness bounded by the hourly interval.
"""

from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm, RealmTopology

from benchmarks.bench_util import REALM


def build_realm_with_users(n_users: int, slaves: int = 2) -> Realm:
    net = Network()
    realm = Realm(
        net, REALM, seed=b"fig13", topology=RealmTopology(slaves_per_shard=slaves)
    )
    for i in range(n_users):
        realm.add_user(f"user{i:04d}", f"pw{i}")
    return realm


def test_bench_fig13_propagation_round(benchmark):
    realm = build_realm_with_users(100)

    result = benchmark(realm.propagate)
    assert result.all_ok

    dump_size = len(realm.db.dump())
    print(f"\nFigure 13 — full-database propagation "
          f"({len(realm.db)} principals, {dump_size} byte dump, 2 slaves)")

    # Convergence: slaves byte-identical to the master.
    for slave in realm.slaves:
        assert list(slave.db.store.items()) == list(realm.db.store.items())
    print("  slaves converged to byte-identical contents")

    # Tamper rejection.
    def flip(datagram):
        if datagram.dst_port == 754:
            payload = bytearray(datagram.payload)
            payload[len(payload) // 2] ^= 0x01
            return type(datagram)(
                src=datagram.src, src_port=datagram.src_port,
                dst=datagram.dst, dst_port=datagram.dst_port,
                payload=bytes(payload),
            )
        return datagram

    realm.add_user("canary", "pw")
    realm.net.add_interceptor(flip)
    tampered = realm.propagate()
    realm.net.remove_interceptor(flip)
    assert not tampered.all_ok
    assert all(
        not s.db.exists(Principal("canary", "", REALM)) for s in realm.slaves
    )
    print("  tampered transfer: rejected by all slaves "
          "(master-key checksum mismatch)")

    # Staleness bound under the hourly schedule.
    realm.schedule_propagation()
    realm.net.clock.advance(3 * 3600.0)
    worst = max(s.kpropd.staleness(realm.net.clock.now()) for s in realm.slaves)
    print(f"  worst slave staleness under hourly schedule: {worst:.0f}s "
          f"(bound: 3600s)")
    assert worst <= 3600.0


def test_bench_fig13_dump_scales_linearly(benchmark):
    """Dump cost grows with database size (it is a full dump — the
    paper's 'very simple method')."""
    realm = build_realm_with_users(500, slaves=0)

    dump = benchmark(realm.db.dump)
    small = build_realm_with_users(50, slaves=0).db.dump()
    print(f"\n  dump sizes: 50 users = {len(small)} B, "
          f"500 users = {len(dump)} B")
    assert len(dump) > 5 * len(small)
