"""Exp F5 — Figure 5: getting the initial ticket (the AS exchange).

Times a complete login (request + KDC work + reply decryption with the
password-derived key) and regenerates the figure's properties: exactly
one round trip, password never on the wire, wrong password fails
locally.
"""

import pytest

from repro.core import ErrorCode, KerberosError
from repro.crypto import string_to_key
from repro.threat import Eavesdropper

from benchmarks.bench_util import small_realm


def test_bench_fig5_kinit(benchmark):
    realm = small_realm()
    ws = realm.workstation()

    def kinit():
        ws.client.kdestroy()
        return ws.client.kinit("jis", "jis-pw")

    tgt = benchmark(kinit)
    assert tgt.life == 8 * 3600.0

    # One round trip to port 750 per login.
    realm.net.reset_stats()
    ws.client.kdestroy()
    ws.client.kinit("jis", "jis-pw")
    messages = realm.net.metrics.total("net.datagrams_total")
    print(f"\nFigure 5 — messages per login: {messages:.0f} "
          f"(1 request + 1 reply)")
    assert realm.net.metrics.total("net.datagrams_total", port="750") == 1
    assert messages == 2

    # The password and its derived key never travel.
    eve = Eavesdropper(realm.net)
    ws.client.kdestroy()
    ws.client.kinit("jis", "jis-pw")
    eve.detach()
    assert not eve.saw_bytes(b"jis-pw")
    assert not eve.saw_bytes(string_to_key("jis-pw").key_bytes)
    print("  password bytes on wire: none;  derived key on wire: none")

    # A wrong password is detected on the workstation, not by the KDC.
    with pytest.raises(KerberosError) as err:
        ws.client.kinit("jis", "wrong-password")
    assert err.value.code == ErrorCode.INTK_BADPW
    print("  wrong password: INTK_BADPW (reply failed to decrypt locally)")
