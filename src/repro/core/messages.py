"""Wire messages of the Kerberos protocols (paper Section 4, Figure 9).

Every exchange in Figure 9 maps to a pair of messages here:

=================  =========================================  ==========
Exchange           Request                                    Reply
=================  =========================================  ==========
Fig. 5 (initial)   :class:`AsRequest`                         :class:`KdcReply`
Fig. 8 (TGS)       :class:`TgsRequest`                        :class:`KdcReply`
Fig. 6/7 (AP)      :class:`ApRequest`                         :class:`ApReply`
errors             —                                          :class:`ErrorReply`
=================  =========================================  ==========

Messages travel inside a one-byte-typed envelope so a server can
dispatch without trial decoding.  Only :class:`KdcReply`'s *body* and the
tickets/authenticators inside requests are encrypted; the envelope and
request fields are cleartext, exactly as in the original protocol (an
eavesdropper sees who is asking for which service — the paper protects
keys and identities' *proofs*, not traffic metadata).
"""

from __future__ import annotations

import enum
from typing import Tuple, Type

from repro.crypto import DesKey, IntegrityError, seal, unseal
from repro.core.errors import ErrorCode, KerberosError, error_for_code
from repro.encode import DecodeError, Decoder, Encoder, WireStruct, field
from repro.principal import Principal


class MessageType(enum.IntEnum):
    AS_REQ = 1
    AS_REP = 2
    TGS_REQ = 3
    TGS_REP = 4
    AP_REQ = 5
    AP_REP = 6
    ERROR = 7
    SAFE = 8
    PRIV = 9
    # Extension (post-1988): AS request carrying preauthentication.
    PREAUTH_AS_REQ = 10


class AsRequest(WireStruct):
    """Figure 5's first message: *"a request is sent to the authentication
    server containing the user's name and the name of a special service
    known as the ticket-granting service."*

    Sent in the clear — it contains no secrets; the reply is what is
    protected (by the user's password-derived key).
    """

    FIELDS = (
        field("client", Principal),
        field("service", Principal),     # usually the TGS; the KDBM for kadmin
        field("requested_life", "f64"),
        field("timestamp", "f64"),       # client's current time, echoed back
    )


class PreauthAsRequest(WireStruct):
    """Extension (post-1988): an AS request that *proves* knowledge of
    the client's key up front, by enclosing the request timestamp sealed
    in that key.

    Motivation: a plain AS request is answerable for *any* principal, so
    an attacker can actively solicit material for offline password
    guessing (see ``repro.threat.eavesdropper``).  With preauthentication
    required, the KDC replies only to requesters who already know the
    key.  (Passive capture of a legitimate user's exchange still enables
    offline guessing — preauth closes the active probe, not the wiretap.)
    """

    FIELDS = (
        field("client", Principal),
        field("service", Principal),
        field("requested_life", "f64"),
        field("timestamp", "f64"),
        field("preauth", "bytes"),   # seal(client_key, f64 timestamp bytes)
    )


def build_preauth(client_key: DesKey, timestamp: float) -> bytes:
    """The preauthentication blob: the request time, sealed in the
    client's key."""
    enc = Encoder()
    enc.f64(timestamp)
    return seal(client_key, enc.getvalue())


def verify_preauth(blob: bytes, client_key: DesKey, timestamp: float) -> bool:
    """KDC side: does the blob open under the client's key and carry a
    fresh timestamp matching the request?"""
    try:
        dec = Decoder(unseal(client_key, blob))
        sealed_time = dec.f64()
        dec.expect_eof()
    except (IntegrityError, DecodeError):
        return False
    return sealed_time == timestamp


class KdcReplyBody(WireStruct):
    """The encrypted payload of an AS or TGS reply: *"the ticket, along
    with a copy of the random session key and some additional
    information"* (Section 4.2)."""

    FIELDS = (
        field("session_key", "bytes"),
        field("server", Principal),      # which service the ticket is for
        field("issue_time", "f64"),      # KDC's clock at issue
        field("life", "f64"),            # granted lifetime
        field("kvno", "u32"),            # key version of the sealing key
        field("request_timestamp", "f64"),  # echo of the request's timestamp
        field("ticket", "bytes"),        # sealed, opaque to the client
    )


class KdcReply(WireStruct):
    """AS reply (sealed in the client's private key) or TGS reply (sealed
    in the TGT's session key — "this way, there is no need for the user to
    enter her/his password again", Section 4.4)."""

    FIELDS = (
        field("client", Principal),
        field("sealed_body", "bytes"),
    )

    @classmethod
    def build(cls, client: Principal, body: KdcReplyBody, key: DesKey) -> "KdcReply":
        return cls(client=client, sealed_body=seal(key, body.to_bytes()))

    def open(self, key: DesKey) -> KdcReplyBody:
        """Decrypt the reply body.  For an AS reply, failure here is the
        paper's wrong-password experience: the reply simply will not
        decrypt."""
        try:
            return KdcReplyBody.from_bytes(unseal(key, self.sealed_body))
        except (IntegrityError, DecodeError) as exc:
            raise error_for_code(
                ErrorCode.INTK_BADPW,
                f"reply would not decrypt (wrong key/password?): {exc}",
            ) from exc


class TgsRequest(WireStruct):
    """Figure 8: *"The request contains the name of the server for which a
    ticket is requested, along with the ticket-granting ticket and an
    authenticator."*

    ``tgt_realm`` names the realm whose TGS issued the enclosed TGT, in
    the clear, so a KDC receiving a cross-realm request can "recognize
    that the request is not from its own realm" and select "the
    previously exchanged key" (Section 7.2).
    """

    FIELDS = (
        field("service", Principal),
        field("requested_life", "f64"),
        field("timestamp", "f64"),
        field("tgt_realm", "string"),
        field("tgt", "bytes"),
        field("authenticator", "bytes"),
    )


class ApRequest(WireStruct):
    """Figure 6: the client "sends the authenticator along with the ticket
    to the server".  ``mutual`` asks the server to prove itself back
    (Figure 7); ``kvno`` lets the server pick the right key from its
    srvtab after a key change."""

    FIELDS = (
        field("ticket", "bytes"),
        field("authenticator", "bytes"),
        field("mutual", "bool"),
        field("kvno", "u32"),
    )


class ApReplyBody(WireStruct):
    """Figure 7's proof: *"the server adds one to the time stamp the
    client sent in the authenticator, encrypts the result in the session
    key, and sends the result back to the client."*"""

    FIELDS = (field("timestamp_plus_one", "f64"),)


class ApReply(WireStruct):
    FIELDS = (field("sealed_body", "bytes"),)

    @classmethod
    def build(cls, authenticator_timestamp: float, session_key: DesKey) -> "ApReply":
        body = ApReplyBody(timestamp_plus_one=authenticator_timestamp + 1.0)
        return cls(sealed_body=seal(session_key, body.to_bytes()))

    def verify(self, expected_timestamp: float, session_key: DesKey) -> None:
        """Client side of mutual authentication: only the genuine server
        could have sealed ts+1 in the session key."""
        try:
            body = ApReplyBody.from_bytes(unseal(session_key, self.sealed_body))
        except (IntegrityError, DecodeError) as exc:
            raise error_for_code(
                ErrorCode.RD_AP_MODIFIED,
                f"mutual-auth reply failed to decrypt: {exc}",
            ) from exc
        if body.timestamp_plus_one != expected_timestamp + 1.0:
            raise error_for_code(
                ErrorCode.RD_AP_MODIFIED,
                "mutual-auth reply has wrong timestamp (masquerading server?)",
            )


class ErrorReply(WireStruct):
    """A failure report from any server."""

    FIELDS = (field("code", "u32"), field("text", "string"))

    def raise_(self) -> None:
        """Raise the *typed* exception for the carried code — the single
        code↔exception mapping lives in :func:`error_for_code`."""
        raise error_for_code(self.code, self.text)

    @classmethod
    def from_error(cls, err: KerberosError) -> "ErrorReply":
        return cls(code=int(err.code), text=err.message)


_TYPE_TO_CLASS: dict = {
    MessageType.AS_REQ: AsRequest,
    MessageType.PREAUTH_AS_REQ: PreauthAsRequest,
    MessageType.AS_REP: KdcReply,
    MessageType.TGS_REQ: TgsRequest,
    MessageType.TGS_REP: KdcReply,
    MessageType.AP_REQ: ApRequest,
    MessageType.AP_REP: ApReply,
    MessageType.ERROR: ErrorReply,
}


def encode_message(mtype: MessageType, message: WireStruct) -> bytes:
    """Wrap a message in the typed envelope."""
    expected = _TYPE_TO_CLASS.get(MessageType(mtype))
    if expected is not None and type(message) is not expected:
        raise TypeError(
            f"{MessageType(mtype).name} carries {expected.__name__}, "
            f"got {type(message).__name__}"
        )
    enc = Encoder()
    enc.u8(int(mtype))
    message.encode_into(enc)
    return enc.getvalue()


def decode_message(data: bytes) -> Tuple[MessageType, WireStruct]:
    """Parse an envelope; raises :class:`KerberosError` (KDC_GEN_ERR) on
    anything malformed, which servers convert to an error reply."""
    try:
        dec = Decoder(data)
        mtype = MessageType(dec.u8())
        cls: Type[WireStruct] = _TYPE_TO_CLASS[mtype]
        message = cls.decode_from(dec)
        dec.expect_eof()
        return mtype, message
    except (DecodeError, ValueError, KeyError) as exc:
        raise error_for_code(
            ErrorCode.KDC_GEN_ERR, f"undecodable message: {exc}"
        ) from exc


def expect_reply(data: bytes, wanted: MessageType) -> WireStruct:
    """Client-side helper: parse a reply, raising the error it carries if
    it is an :class:`ErrorReply`, and checking the type otherwise."""
    mtype, message = decode_message(data)
    if mtype == MessageType.ERROR:
        message.raise_()
    if mtype != wanted:
        raise error_for_code(
            ErrorCode.INTK_PROT,
            f"expected {wanted.name}, got {mtype.name}",
        )
    return message
