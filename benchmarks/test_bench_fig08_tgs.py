"""Exp F8 — Figure 8: getting a server ticket (the TGS exchange).

Times one TGS exchange and regenerates the figure's rules: no password
re-entry, and the new ticket's lifetime is min(remaining TGT life,
service default).
"""

from repro.crypto import string_to_key
from repro.threat import Eavesdropper

from benchmarks.bench_util import (
    logged_in_workstation,
    rlogin_principal,
    small_realm,
)


def test_bench_fig8_tgs_exchange(benchmark):
    realm = small_realm()
    service = rlogin_principal()
    ws = logged_in_workstation(realm)
    tgt = ws.client.cache.tgt(realm.name)

    def tgs_exchange():
        return ws.client._tgs_exchange(realm.name, tgt, service, None)

    cred = benchmark(tgs_exchange)
    assert cred.service == service

    # No password material in any TGS traffic.
    eve = Eavesdropper(realm.net)
    ws.client._tgs_exchange(realm.name, tgt, service, None)
    eve.detach()
    assert not eve.saw_bytes(string_to_key("jis-pw").key_bytes)
    print("\nFigure 8 — TGS exchange: no password re-entry "
          "(reply sealed in the TGT session key)")

    # The lifetime rule, swept across TGT ages.
    print("  lifetime = min(remaining TGT life, service default):")
    realm2 = small_realm(seed=b"fig8-sweep")
    ws2 = logged_in_workstation(realm2)
    last = 0.0
    for target_hours in (1, 4, 7):
        realm2.net.clock.advance((target_hours - last) * 3600.0)
        last = target_hours
        ws2.client.cache._creds.pop(str(rlogin_principal()), None)
        cred = ws2.client.get_credential(rlogin_principal(), life=9 * 3600.0)
        remaining_tgt = 8.0 - target_hours
        print(f"    TGT age {target_hours} h -> service ticket life "
              f"{cred.life / 3600:.1f} h (expected {remaining_tgt:.1f})")
        assert abs(cred.life - remaining_tgt * 3600.0) < 1.0
