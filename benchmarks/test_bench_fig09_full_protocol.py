"""Exp F9 — Figure 9: the complete authentication protocol summary.

Times the full login-to-authenticated-service path (all three phases)
and regenerates the figure's structure: three exchanges, six messages,
and the exact key-usage chain.
"""

import pytest

from repro.core import (
    KerberosError,
    krb_mk_rep,
    krb_rd_rep,
    krb_rd_req,
    tgs_principal,
    unseal_ticket,
)
from repro.crypto import string_to_key

from benchmarks.bench_util import rlogin_principal, small_realm


def test_bench_fig9_full_protocol(benchmark):
    realm = small_realm()
    service = rlogin_principal()
    key = realm.service_key(service)
    ws = realm.workstation()
    now = realm.net.clock.now()

    def full_protocol():
        ws.client.kdestroy()
        ws.client.kinit("jis", "jis-pw")                      # phase 1 (AS)
        request, cred, sent = ws.client.mk_req(service, mutual=True)  # phase 2 (TGS)
        context = krb_rd_req(request, service, key, ws.host.address, now)  # phase 3
        krb_rd_rep(krb_mk_rep(context), sent, cred.session_key)
        return context

    context = benchmark(full_protocol)
    assert context.client.name == "jis"

    # Message accounting: 2 KDC round trips = 4 datagrams on the wire
    # (the AP exchange above runs in-process at the service).
    realm.net.reset_stats()
    full_protocol()
    print(f"\nFigure 9 — KDC messages for login + first service: "
          f"{realm.net.metrics.total('net.datagrams_total'):.0f} "
          f"(2 exchanges x 2)")
    assert realm.net.metrics.total("net.datagrams_total", port="750") == 2

    # The key chain: password key opens only the AS reply; TGS key opens
    # only the TGT; service key opens only the service ticket.
    tgt_cred = ws.client.cache.tgt(realm.name)
    svc_cred = ws.client.cache.get(service)
    tgs_key = realm.db.principal_key(tgs_principal(realm.name))
    tgt = unseal_ticket(tgt_cred.ticket, tgs_key)
    svc_ticket = unseal_ticket(svc_cred.ticket, key)
    assert tgt.session_key != svc_ticket.session_key
    with pytest.raises(KerberosError):
        unseal_ticket(tgt_cred.ticket, string_to_key("jis-pw"))
    with pytest.raises(KerberosError):
        unseal_ticket(svc_cred.ticket, tgs_key)
    print("  key-usage chain verified: K_c -> K_tgs -> K_s, no crossovers")
