"""Failure injection: the protocols over a lossy network.

The 1988 exchanges ran over UDP; datagrams get lost.  The client
retransmits (with fresh authenticators — a verbatim TGS resend would be
indistinguishable from a replay at the KDC).
"""

import pytest

from repro.core import (
    KerberosClient,
    KerberosServer,
    Principal,
    RetryPolicy,
    StaticLocator,
)
from repro.crypto import KeyGenerator
from repro.database.admin_tools import kdb_init, register_service
from repro.netsim import Loss, Network, Unreachable

REALM = "ATHENA.MIT.EDU"


def build(loss_rate, seed=0, attempts=3):
    net = Network(seed=seed)
    if loss_rate:
        net.faults.add(Loss(loss_rate))
    gen = KeyGenerator(seed=b"lossy")
    db = kdb_init(REALM, "mpw", gen)
    db.add_principal(Principal("jis", "", REALM), password="pw")
    service = Principal("rlogin", "priam", REALM)
    register_service(db, service, gen)
    kdc_host = net.add_host("kerberos")
    KerberosServer(db, gen.fork(b"kdc")).attach(kdc_host)
    ws = net.add_host("ws")
    client = KerberosClient(
        ws, REALM, StaticLocator([kdc_host.address]),
        retry_policy=RetryPolicy(max_attempts=attempts),
    )
    return net, client, service


class TestRetransmission:
    def test_moderate_loss_login_succeeds(self):
        """With 20% loss and 3 attempts, logins nearly always succeed."""
        successes = 0
        for seed in range(20):
            net, client, _ = build(loss_rate=0.2, seed=seed)
            try:
                client.kinit("jis", "pw")
                successes += 1
            except Unreachable:
                pass
        assert successes >= 18

    def test_tgs_retry_uses_fresh_authenticator(self):
        """The critical case: the KDC processed the request but the reply
        was lost.  The retry must not be rejected as a replay."""
        net, client, service = build(loss_rate=0.0)
        client.kinit("jis", "pw")

        # Drop exactly one TGS *reply* (the next datagram leaving port 750).
        state = {"dropped": False}

        def drop_one_reply(datagram):
            if datagram.src_port == 750 and not state["dropped"]:
                state["dropped"] = True
                return None
            return datagram

        net.add_interceptor(drop_one_reply)
        cred = client.get_credential(service)  # must succeed via retry
        assert cred is not None
        assert state["dropped"]

    def test_total_loss_raises_unreachable(self):
        net, client, _ = build(loss_rate=0.0)
        net.add_interceptor(lambda d: None)  # black hole
        with pytest.raises(Unreachable):
            client.kinit("jis", "pw")

    def test_retry_count_respected(self):
        """A black-holed network sees exactly the policy's attempts."""
        net, client, _ = build(loss_rate=0.0, attempts=4)
        seen = []

        def count_and_drop(datagram):
            if datagram.dst_port == 750:
                seen.append(datagram)
                return None
            return datagram

        net.add_interceptor(count_and_drop)
        with pytest.raises(Unreachable):
            client.kinit("jis", "pw")
        assert len(seen) == 4

    def test_invalid_retries(self):
        with pytest.raises(ValueError):
            build(loss_rate=0.0, attempts=0)

    def test_loss_on_as_exchange_reply(self):
        """Losing an AS reply is harmless: the AS keeps no replay state,
        and the echoed timestamp still matches."""
        net, client, _ = build(loss_rate=0.0)
        state = {"dropped": False}

        def drop_first_reply(datagram):
            if datagram.src_port == 750 and not state["dropped"]:
                state["dropped"] = True
                return None
            return datagram

        net.add_interceptor(drop_first_reply)
        tgt = client.kinit("jis", "pw")
        assert tgt is not None
