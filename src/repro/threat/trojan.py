"""The workstation-integrity open problem (paper Section 8).

*"Another problem ... is how to guarantee the integrity of the software
running on a workstation. ... On public workstations, however, someone
might have come along and modified the log-in program to save the
user's password.  The only solution presently available in our
environment is to make it difficult for people to modify software
running on the public workstations.  A better solution would require
that the user's key never leave a system that the user knows can be
trusted ... if the user possessed a smartcard capable of doing the
encryptions required in the authentication protocol."*

:class:`TrojanedLoginSession` is that modified log-in program.  Nothing
in the protocol detects it — the point of implementing it is to
demonstrate, in tests, exactly which guarantee Kerberos does *not* make
(and why the paper lists it as open).  :class:`SmartcardLogin` sketches
the paper's proposed mitigation: the password-derived key lives on the
card, which performs the one decryption the login needs, so the trojan
sees neither password nor key.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.client import KerberosClient
from repro.core.credcache import Credential
from repro.core.messages import AsRequest, KdcReplyBody, MessageType, encode_message, expect_reply
from repro.crypto import DesKey, string_to_key
from repro.database.schema import DEFAULT_MAX_LIFE
from repro.netsim import Host
from repro.principal import Principal, tgs_principal
from repro.user.login import LoginSession


class TrojanedLoginSession(LoginSession):
    """A login program "modified ... to save the user's password".

    Behaves identically to the honest program — same prompts, same
    outcome — while recording every password typed into it.  The
    protocol cannot tell: the trojan IS the trusted endpoint.
    """

    def __init__(self, host: Host, client: KerberosClient) -> None:
        super().__init__(host, client)
        self.harvested: List[Tuple[str, str]] = []

    def login(self, username: str, password: str) -> Credential:
        self.harvested.append((username, password))  # the modification
        return super().login(username, password)


class Smartcard:
    """The user's key, sealed inside hardware the workstation never
    reads.  The card exposes exactly one operation: decrypt an AS reply
    body with the stored key."""

    def __init__(self, password: str) -> None:
        self._key: DesKey = string_to_key(password)
        del password

    def open_as_reply(self, reply) -> KdcReplyBody:
        """Perform 'the encryptions required in the authentication
        protocol' on behalf of the user."""
        return reply.open(self._key)


class SmartcardLogin:
    """The paper's sketched mitigation: the workstation drives the AS
    exchange but hands the sealed reply to the card; no password is ever
    typed into (or key revealed to) workstation software."""

    def __init__(self, host: Host, client: KerberosClient) -> None:
        self.host = host
        self.client = client

    def login(self, username: str, card: Smartcard) -> Credential:
        realm = self.client.realm
        principal = Principal(username, "", realm)
        now = self.host.clock.now()
        request = AsRequest(
            client=principal,
            service=tgs_principal(realm),
            requested_life=DEFAULT_MAX_LIFE,
            timestamp=now,
        )
        raw = self.client._ask_kdc(
            realm, lambda: encode_message(MessageType.AS_REQ, request)
        )
        reply = expect_reply(raw, MessageType.AS_REP)
        body = card.open_as_reply(reply)  # the only decryption, on-card
        cred = Credential(
            service=body.server,
            ticket=body.ticket,
            session_key=DesKey(body.session_key, allow_weak=True),
            issue_time=body.issue_time,
            life=body.life,
            kvno=body.kvno,
        )
        self.client.cache.store(cred)
        self.client.cache.owner = principal
        return cred
