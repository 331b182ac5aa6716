"""Safe and private messages (paper Section 2.1).

*"Kerberos provides three distinct levels of protection"*:

1. authenticity established only at connection setup — that is plain
   :func:`repro.core.applib.krb_rd_req`, nothing more needed;
2. **safe messages** — "authentication of each message, but do not care
   whether the content of the message is disclosed": plaintext plus a
   keyed checksum, sender address, and timestamp;
3. **private messages** — "each message is not only authenticated, but
   also encrypted.  Private messages are used, for example, by the
   Kerberos server itself for sending passwords over the network."

The function names follow the library the paper describes:
``krb_mk_safe``/``krb_rd_safe`` and ``krb_mk_priv``/``krb_rd_priv``
(Section 6.2).  :func:`protect`/:func:`unprotect` pick between them by
:class:`Protection` level, for both ends of a session.
"""

from __future__ import annotations

import enum

from repro.crypto import DesKey, IntegrityError, quad_cksum, seal, unseal
from repro.core.errors import ErrorCode, KerberosError
from repro.core.replay import CLOCK_SKEW
from repro.encode import DecodeError, WireStruct, field
from repro.netsim import IPAddress


class Protection(enum.IntEnum):
    """Section 2.1's three levels of protection."""

    NONE = 0
    SAFE = 1
    PRIVATE = 2


class SafeMessage(WireStruct):
    """Authenticated-but-cleartext application data."""

    FIELDS = (
        field("data", "bytes"),
        field("sender", "u32"),       # sender's network address
        field("timestamp", "f64"),
        field("checksum", "u32"),     # quad_cksum seeded by the session key
    )


class PrivMessage(WireStruct):
    """Encrypted application data (the sealed payload carries the
    plaintext, sender, and timestamp together)."""

    FIELDS = (field("sealed", "bytes"),)


class _PrivBody(WireStruct):
    FIELDS = (
        field("data", "bytes"),
        field("sender", "u32"),
        field("timestamp", "f64"),
    )


def krb_mk_safe(
    data: bytes, session_key: DesKey, sender: IPAddress, now: float
) -> SafeMessage:
    """Build a safe message: readable by anyone, forgeable by no one
    without the session key."""
    body = SafeMessage(
        data=bytes(data),
        sender=IPAddress(sender).as_int,
        timestamp=now,
        checksum=0,
    )
    checksum = quad_cksum(body.to_bytes(), session_key.key_bytes)
    return body.replace(checksum=checksum)


def krb_rd_safe(
    message: SafeMessage,
    session_key: DesKey,
    expected_sender: IPAddress,
    now: float,
    skew: float = CLOCK_SKEW,
) -> bytes:
    """Verify and return the data of a safe message."""
    expected = quad_cksum(
        message.replace(checksum=0).to_bytes(), session_key.key_bytes
    )
    if message.checksum != expected:
        raise KerberosError(
            ErrorCode.RD_AP_MODIFIED, "safe message checksum mismatch"
        )
    if message.sender != IPAddress(expected_sender).as_int:
        raise KerberosError(
            ErrorCode.RD_AP_BADD,
            f"safe message claims sender {IPAddress(message.sender)}, "
            f"expected {IPAddress(expected_sender)}",
        )
    if abs(now - message.timestamp) > skew:
        raise KerberosError(
            ErrorCode.RD_AP_TIME,
            f"safe message time {message.timestamp:.0f} outside window",
        )
    return message.data


def krb_mk_priv(
    data: bytes, session_key: DesKey, sender: IPAddress, now: float
) -> PrivMessage:
    """Build a private message: encrypted and authenticated."""
    body = _PrivBody(
        data=bytes(data), sender=IPAddress(sender).as_int, timestamp=now
    )
    return PrivMessage(sealed=seal(session_key, body.to_bytes()))


def krb_rd_priv(
    message: PrivMessage,
    session_key: DesKey,
    expected_sender: IPAddress,
    now: float,
    skew: float = CLOCK_SKEW,
) -> bytes:
    """Decrypt, verify, and return the data of a private message."""
    try:
        body = _PrivBody.from_bytes(unseal(session_key, message.sealed))
    except (IntegrityError, DecodeError) as exc:
        raise KerberosError(
            ErrorCode.RD_AP_MODIFIED,
            f"private message failed to decrypt: {exc}",
        ) from exc
    if body.sender != IPAddress(expected_sender).as_int:
        raise KerberosError(
            ErrorCode.RD_AP_BADD,
            f"private message claims sender {IPAddress(body.sender)}, "
            f"expected {IPAddress(expected_sender)}",
        )
    if abs(now - body.timestamp) > skew:
        raise KerberosError(
            ErrorCode.RD_AP_TIME,
            f"private message time {body.timestamp:.0f} outside window",
        )
    return body.data


def protect(
    level: Protection, data: bytes, session_key: DesKey, sender: IPAddress,
    now: float,
) -> bytes:
    """``data`` as it goes on the wire in a session at ``level``."""
    if level == Protection.NONE:
        return data
    make = krb_mk_safe if level == Protection.SAFE else krb_mk_priv
    return make(data, session_key, sender, now).to_bytes()


def unprotect(
    level: Protection, payload: bytes, session_key: DesKey,
    expected_sender: IPAddress, now: float, skew: float = CLOCK_SKEW,
) -> bytes:
    """The data inside a payload received in a session at ``level``,
    verified as that level promises (at NONE, nothing is)."""
    if level == Protection.NONE:
        return payload
    if level == Protection.SAFE:
        return krb_rd_safe(
            SafeMessage.from_bytes(payload), session_key, expected_sender, now, skew
        )
    return krb_rd_priv(
        PrivMessage.from_bytes(payload), session_key, expected_sender, now, skew
    )
