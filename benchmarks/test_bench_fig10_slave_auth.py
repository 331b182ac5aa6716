"""Exp F10 — Figure 10: authentication requests go to master OR slaves.

Regenerates the figure's two claims:

* availability — authentication still succeeds with the master down
  (the client fails over to a slave);
* load spreading — "the ability to perform authentication on any one of
  several machines reduces the probability of a bottleneck": with N
  KDCs and clients spread across them, per-KDC load drops ~N-fold.
"""

from repro.core import KerberosClient, StaticLocator

from benchmarks.bench_util import REALM, small_realm


def test_bench_fig10_failover_login(benchmark):
    realm = small_realm(slaves=2)
    realm.net.set_down(realm.master_host.name)
    ws = realm.workstation()

    def login_via_slave():
        ws.client.kdestroy()
        return ws.client.kinit("jis", "jis-pw")

    tgt = benchmark(login_via_slave)
    assert tgt is not None
    print("\nFigure 10 — master down: logins served by slaves")
    realm.net.set_up(realm.master_host.name)


def test_bench_fig10_load_spreading(benchmark):
    realm = small_realm(slaves=2, seed=b"fig10-load")
    kdcs = [realm.kdc] + [s.kdc for s in realm.slaves]
    addresses = realm.kdc_addresses()

    # 30 workstations, each preferring a different KDC (round-robin), as
    # a client population spread across replicas would.
    stations = []
    for i in range(30):
        ws = realm.workstation()
        preferred = addresses[i % len(addresses)]
        others = [a for a in addresses if a != preferred]
        ws.client.set_locator(REALM, StaticLocator([preferred] + others))
        stations.append(ws)

    def login_storm():
        for ws in stations:
            ws.client.kdestroy()
            ws.client.kinit("jis", "jis-pw")

    benchmark.pedantic(login_storm, rounds=3, iterations=1)

    loads = [
        realm.net.metrics.total(
            "kdc.requests_total", kind="as", server=k.host.name
        )
        for k in kdcs
    ]
    total = sum(loads)
    print("\nFigure 10 — AS request distribution across 1 master + 2 slaves:")
    for name, load in zip(["master", "slave-1", "slave-2"], loads):
        print(f"  {name:<8} {load:>5} requests ({100 * load / total:.0f}%)")
    # Shape: no single machine serves everything; the spread is near-even.
    assert max(loads) < total
    assert max(loads) <= 2 * min(loads)
