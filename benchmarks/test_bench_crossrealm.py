"""Exp X1 — Section 7.2: cross-realm authentication.

Times a full cross-realm acquisition (local TGS -> remote TGT -> remote
TGS -> service ticket) and regenerates the section's invariants: the
remote TGS honors the foreign TGT via the exchanged key, the client's
original realm is preserved, and chaining beyond one hop is refused.
"""

import pytest

from repro.core import (
    ErrorCode,
    KerberosError,
    StaticLocator,
    krb_rd_req,
    tgs_principal,
    unseal_ticket,
)
from repro.netsim import Network
from repro.realm import Realm, link

ATHENA = "ATHENA.MIT.EDU"
LCS = "LCS.MIT.EDU"


def build_two_realms():
    net = Network()
    athena = Realm(net, ATHENA, seed=b"x1-athena")
    lcs = Realm(net, LCS, seed=b"x1-lcs")
    athena.add_user("jis", "jis-pw")
    service, key = lcs.add_service("rlogin", "ptt")
    link(athena, lcs)
    ws = athena.workstation()
    ws.client.set_locator(LCS, StaticLocator([lcs.master_host.address]))
    ws.client.kinit("jis", "jis-pw")
    return net, athena, lcs, ws, service, key


def test_bench_crossrealm_acquisition(benchmark):
    net, athena, lcs, ws, service, key = build_two_realms()

    def acquire_cross_realm():
        # Force the full two-exchange path each round.
        ws.client.cache._creds.pop(str(service), None)
        ws.client.cache._creds.pop(str(tgs_principal(ATHENA, LCS)), None)
        return ws.client.get_credential(service)

    cred = benchmark(acquire_cross_realm)

    print("\nSection 7.2 — cross-realm authentication:")
    # The LCS service opens the ticket with its own key; the client's
    # realm field shows where they were originally authenticated.
    ticket = unseal_ticket(cred.ticket, key)
    print(f"  ticket client: {ticket.client} (authenticated by {ATHENA})")
    assert str(ticket.client) == f"jis@{ATHENA}"

    request, _, _ = ws.client.mk_req(service)
    context = krb_rd_req(request, service, key, ws.host.address, net.clock.now())
    assert context.client.realm == ATHENA
    print("  LCS service accepted the Athena-vouched client")

    # Message cost: 2 extra KDC exchanges vs. a local ticket.
    net.reset_stats()
    ws.client.cache._creds.pop(str(service), None)
    ws.client.cache._creds.pop(str(tgs_principal(ATHENA, LCS)), None)
    ws.client.get_credential(service)
    round_trips = net.metrics.total("net.datagrams_total", port="750")
    print(f"  KDC round trips for first cross-realm ticket: {round_trips:.0f}")
    assert round_trips == 2

    # Chaining to a third realm is refused (the paper's stated limit).
    uw = Realm(net, "CS.WASHINGTON.EDU", seed=b"x1-uw")
    link(lcs, uw)
    ws.client.set_locator(
        "CS.WASHINGTON.EDU", StaticLocator([uw.master_host.address])
    )
    remote_tgt = ws.client.cache.remote_tgt(ATHENA, LCS)
    with pytest.raises(KerberosError) as err:
        ws.client._tgs_exchange(
            LCS, remote_tgt, tgs_principal(LCS, "CS.WASHINGTON.EDU"), None
        )
    assert err.value.code == ErrorCode.KDC_NO_CROSS_REALM
    print("  second-hop chaining: refused (only the initial realm is "
          "recorded)")
