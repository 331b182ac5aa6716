"""Exp F11 — Figure 11: administration requests reach the master only.

Regenerates the figure's asymmetry: with the master down, password
changes fail while authentication continues; the KDBM cannot even be
started against a slave's read-only copy.
"""

import pytest

from repro.database import ReadOnlyDatabase
from repro.kdbm import KdbmClient, KdbmServer
from repro.netsim import Unreachable
from repro.principal import Principal

from benchmarks.bench_util import REALM, small_realm


def test_bench_fig11_admin_roundtrip(benchmark):
    realm = small_realm(slaves=1)
    realm.add_admin("jis", "jis-admin-pw")
    realm.propagate()
    ws = realm.workstation()
    kdbm = KdbmClient(ws.client, realm.master_host.address)
    admin = Principal("jis", "admin", REALM)

    names = iter(range(10**9))

    def add_principal_via_kdbm():
        return kdbm.add_principal(
            admin, "jis-admin-pw", Principal(f"u{next(names)}", "", REALM), "pw"
        )

    result = benchmark(add_principal_via_kdbm)
    assert "added" in result

    print("\nFigure 11 — master-only administration:")
    with pytest.raises(ReadOnlyDatabase):
        KdbmServer(realm.slaves[0].db, realm.acl, port=9999).attach(realm.slaves[0].host)
    print("  KDBM refuses to start on a slave (read-only copy)")

    realm.net.set_down(realm.master_host.name)
    with pytest.raises(Unreachable):
        kdbm.change_password(Principal("jis", "", REALM), "jis-pw", "x")
    print("  master down: kpasswd unreachable")

    ws2 = realm.workstation()
    assert ws2.client.kinit("jis", "jis-pw") is not None
    print("  master down: authentication still succeeds (slave)")
    realm.net.set_up(realm.master_host.name)
