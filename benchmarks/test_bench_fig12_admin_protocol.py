"""Exp F12 — Figure 12: the Kerberos administration protocol.

Times a complete kpasswd round trip (AS exchange for a KDBM ticket +
private-message operation) and regenerates the protocol's invariants:
KDBM tickets come only from the authentication service, passwords
travel only inside private messages, and every request is logged.
"""

import pytest

from repro.core import ErrorCode, KerberosError, kdbm_principal
from repro.kdbm import KdbmClient
from repro.principal import Principal
from repro.threat import Eavesdropper

from benchmarks.bench_util import REALM, small_realm


def test_bench_fig12_kpasswd_roundtrip(benchmark):
    realm = small_realm()
    ws = realm.workstation()
    kdbm = KdbmClient(ws.client, realm.master_host.address)
    jis = Principal("jis", "", REALM)

    state = {"current": "jis-pw", "flip": "other-pw"}

    def kpasswd_roundtrip():
        old, new = state["current"], state["flip"]
        result = kdbm.change_password(jis, old, new)
        state["current"], state["flip"] = new, old
        return result

    result = benchmark(kpasswd_roundtrip)
    assert "password changed" in result

    print("\nFigure 12 — administration protocol invariants:")
    # KDBM tickets only via the AS: the TGS refuses.  (Clear the KDBM
    # credential the benchmark loop cached first.)
    ws.client.kdestroy()
    ws.client.kinit("jis", state["current"])
    with pytest.raises(KerberosError) as err:
        ws.client.get_credential(kdbm_principal(REALM))
    assert err.value.code == ErrorCode.KDC_PR_NOTGT
    print("  TGS refuses KDBM tickets (password entry is forced)")

    # The new password travels only inside a private message.
    eve = Eavesdropper(realm.net)
    kdbm.change_password(jis, state["current"], "well-hidden-secret")
    eve.detach()
    assert not eve.saw_bytes(b"well-hidden-secret")
    print("  new password: never in cleartext on the wire")

    # Every request is in the audit log.
    permitted = sum(1 for e in realm.kdbm.log if e.permitted)
    print(f"  audit log: {len(realm.kdbm.log)} entries "
          f"({permitted} permitted)")
    assert len(realm.kdbm.log) > 0
