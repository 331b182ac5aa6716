"""A passive wiretap (paper Section 1's "someone watching the network").

The eavesdropper sees every datagram.  The protocol's claim is that this
gains an attacker nothing usable: passwords never travel, keys travel
only inside seals, and what does travel in the clear (names, realms,
sealed blobs) does not let the attacker impersonate anyone.

One honest caveat the module also demonstrates:
:meth:`Eavesdropper.offline_password_guess`.  An AS reply is encrypted
with a key derived *from the user's password*, so an eavesdropper can
test password guesses offline against a captured reply.  The 1988 paper
does not discuss this (preauthentication came later, in V5); the attack
is implemented here because a faithful reproduction should show the
design's real edges, not only its strengths.  Note it recovers only
*weak* passwords — it is a dictionary attack, not a break of DES.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.errors import ErrorCode, KerberosError
from repro.core.messages import (
    AsRequest,
    KdcReply,
    MessageType,
    decode_message,
    encode_message,
    expect_reply,
)
from repro.crypto import string_to_key
from repro.netsim import Datagram, Network
from repro.principal import Principal, tgs_principal


class Eavesdropper:
    """Records all traffic; offers analysis helpers."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self.captured: List[Datagram] = []
        self._tap = self.captured.append
        net.add_tap(self._tap)

    def detach(self) -> None:
        self.net.remove_tap(self._tap)

    # -- passive analysis ---------------------------------------------------

    def saw_bytes(self, needle: bytes) -> bool:
        """Did this byte string ever appear on the wire in the clear?"""
        return any(needle in d.payload for d in self.captured)

    def harvest_kdc_replies(self) -> List[KdcReply]:
        """Collect every AS/TGS reply seen (sealed blobs, to the
        attacker)."""
        replies = []
        for datagram in self.captured:
            try:
                mtype, message = decode_message(datagram.payload)
            except KerberosError:
                continue
            if mtype in (MessageType.AS_REP, MessageType.TGS_REP):
                replies.append(message)
        return replies

    def total_bytes(self) -> int:
        return sum(len(d.payload) for d in self.captured)

    # -- the offline guessing edge ----------------------------------------------

    def offline_password_guess(
        self, reply: KdcReply, candidates: List[str]
    ) -> Optional[str]:
        """Try candidate passwords against a captured AS reply.

        A guess is correct exactly when the derived key opens the sealed
        body.  No message to any server is needed — which is why weak
        passwords were (and are) dangerous even under Kerberos.
        """
        for candidate in candidates:
            try:
                reply.open(string_to_key(candidate))
                return candidate
            except KerberosError:
                continue
        return None


def active_as_probe(
    attacker_host,
    kdc_address,
    victim: Principal,
    realm: str,
) -> Optional[KdcReply]:
    """The *active* variant of the offline-guessing attack: instead of
    waiting to sniff a victim's login, just ASK the KDC for one.

    A plain 1988 AS request needs no proof of anything, so the KDC mails
    anyone a reply sealed in the victim's password-derived key — perfect
    offline-guessing material, on demand, for every user in the realm.
    Preauthentication (the post-paper extension in
    :class:`repro.core.messages.PreauthAsRequest`) is the counter: the
    KDC then answers only requesters who already know the key.

    Returns the harvested reply, or None if the KDC refused
    (KDC_PREAUTH_REQUIRED).
    """
    request = AsRequest(
        client=victim,
        service=tgs_principal(realm),
        requested_life=3600.0,
        timestamp=attacker_host.clock.now(),
    )
    raw = attacker_host.rpc(
        kdc_address, 750, encode_message(MessageType.AS_REQ, request)
    )
    try:
        return expect_reply(raw, MessageType.AS_REP)
    except KerberosError as exc:
        if exc.code == ErrorCode.KDC_PREAUTH_REQUIRED:
            return None
        raise
