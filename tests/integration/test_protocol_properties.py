"""Property-based tests of whole-protocol invariants.

Hypothesis generates random users, passwords, services, lifetimes, and
skews; the invariants of Section 4 must hold for all of them.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    KerberosClient,
    KerberosError,
    KerberosServer,
    Principal,
    StaticLocator,
    krb_rd_req,
    tgs_principal,
    unseal_ticket,
)
from repro.crypto import KeyGenerator, string_to_key
from repro.database.admin_tools import kdb_init, register_service
from repro.netsim import Network

REALM = "ATHENA.MIT.EDU"

usernames = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=12,
)
passwords = st.text(min_size=1, max_size=24).filter(lambda s: s.strip())
lifetimes = st.floats(min_value=60.0, max_value=24 * 3600.0)


def build_world(username, password):
    net = Network()
    gen = KeyGenerator(seed=b"props" + username.encode("utf-8", "replace"))
    db = kdb_init(REALM, "mpw", gen)
    db.add_principal(Principal(username, "", REALM), password=password)
    service = Principal("svc", "host", REALM)
    key = register_service(db, service, gen)
    kdc_host = net.add_host("kdc")
    KerberosServer(db, gen.fork(b"k")).attach(kdc_host)
    ws = net.add_host("ws")
    client = KerberosClient(ws, REALM, StaticLocator([kdc_host.address]))
    return net, client, service, key, db


class TestProtocolInvariants:
    @given(usernames, passwords, lifetimes)
    @settings(max_examples=25, deadline=None)
    def test_login_and_service_for_any_user(self, username, password, life):
        """Any registered (user, password) can complete the full protocol."""
        net, client, service, key, db = build_world(username, password)
        client.kinit(username, password, life=life)
        request, cred, _ = client.mk_req(service)
        ctx = krb_rd_req(request, service, key,
                         client.host.address, net.clock.now())
        assert ctx.client.name == username
        # Lifetime never exceeds policy or the request.
        assert cred.life <= min(life, 8 * 3600.0) + 1e-9

    @given(usernames, passwords, passwords)
    @settings(max_examples=25, deadline=None)
    def test_wrong_password_always_fails(self, username, real_pw, wrong_pw):
        """No wrong password ever opens an AS reply (unless the derived
        DES keys collide, which string_to_key makes effectively
        impossible for distinct inputs — asserted here)."""
        if string_to_key(real_pw) == string_to_key(wrong_pw):
            return  # identical effective passwords
        net, client, service, key, db = build_world(username, real_pw)
        with pytest.raises(KerberosError):
            client.kinit(username, wrong_pw)

    @given(usernames, passwords, lifetimes)
    @settings(max_examples=20, deadline=None)
    def test_issued_tickets_internally_consistent(self, username, password, life):
        """Every issued ticket's sealed content agrees with the reply
        metadata: same session key, same client, issue time = KDC time."""
        net, client, service, key, db = build_world(username, password)
        client.kinit(username, password, life=life)
        cred = client.get_credential(service, life=life)
        ticket = unseal_ticket(cred.ticket, key)
        assert ticket.session_key == cred.session_key.key_bytes
        assert ticket.client.name == username
        assert ticket.timestamp == cred.issue_time
        assert ticket.life == cred.life
        assert ticket.address == client.host.address.as_int

    @given(usernames, passwords)
    @settings(max_examples=15, deadline=None)
    def test_session_keys_never_repeat(self, username, password):
        """Each exchange mints a fresh session key."""
        net, client, service, key, db = build_world(username, password)
        client.kinit(username, password)
        keys = {client.cache.tgt(REALM).session_key.key_bytes}
        for _ in range(5):
            client.cache._creds.pop(str(service), None)
            cred = client.get_credential(service)
            assert cred.session_key.key_bytes not in keys
            keys.add(cred.session_key.key_bytes)

    @given(usernames, passwords, st.floats(min_value=-240, max_value=240))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    def test_small_skew_never_breaks_protocol(self, username, password, skew):
        """Drift inside the paper's several-minute assumption is always
        tolerated."""
        net = Network()
        gen = KeyGenerator(seed=b"skewprop")
        db = kdb_init(REALM, "mpw", gen)
        db.add_principal(Principal(username, "", REALM), password=password)
        service = Principal("svc", "host", REALM)
        key = register_service(db, service, gen)
        kdc_host = net.add_host("kdc")
        KerberosServer(db, gen.fork(b"k")).attach(kdc_host)
        ws = net.add_host("ws", clock_skew=skew)
        client = KerberosClient(ws, REALM, StaticLocator([kdc_host.address]))

        client.kinit(username, password)
        request, _, _ = client.mk_req(service)
        ctx = krb_rd_req(request, service, key, ws.address, net.clock.now())
        assert ctx.client.name == username
