"""Kerberos tickets (paper Section 4.1, Figure 3).

*"A ticket is good for a single server and a single client.  It contains
the name of the server, the name of the client, the Internet address of
the client, a time stamp, a lifetime, and a random session key.  This
information is encrypted using the key of the server for which the
ticket will be used."*

Figure 3::

    {s, c, addr, timestamp, life, K_s,c} K_s

Because the ticket is sealed in the server's key, "it is safe to allow
the user to pass the ticket on to the server without having to worry
about the user modifying the ticket".  To everyone but the issuing KDC
and the target server a ticket is opaque bytes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Type, Union

from repro.crypto import (
    SEAL_START,
    DesKey,
    IntegrityError,
    keycache,
    seal,
    seal_nested_many,
    sealed_length,
    sealed_prefix_state,
    unseal,
    unseal_many,
)
from repro.core.errors import ErrorCode, KerberosError
from repro.encode import DecodeError, WireStruct, field
from repro.netsim import IPAddress
from repro.principal import Principal


class Ticket(WireStruct):
    """The plaintext content of a ticket — exactly Figure 3's six fields."""

    FIELDS = (
        field("server", Principal),     # s
        field("client", Principal),     # c  (client realm records where the
                                        #     user originally authenticated,
                                        #     Section 7.2)
        field("address", "u32"),        # addr
        field("timestamp", "f64"),      # time of issue
        field("life", "f64"),           # lifetime in seconds
        field("session_key", "bytes"),  # K_s,c
    )

    # -- validity ----------------------------------------------------------

    @property
    def expires(self) -> float:
        return self.timestamp + self.life

    def expired(self, now: float, skew: float = 0.0) -> bool:
        return now > self.expires + skew

    def not_yet_valid(self, now: float, skew: float = 0.0) -> bool:
        return now < self.timestamp - skew

    def remaining_life(self, now: float) -> float:
        return max(0.0, self.expires - now)

    @property
    def key(self) -> DesKey:
        # Schedule-cached: servers touch .key several times per request
        # (authenticator unseal, mutual-auth reply, safe messages).
        return DesKey.from_bytes(self.session_key, allow_weak=True)

    @property
    def client_address(self) -> IPAddress:
        return IPAddress(self.address)

    def __repr__(self) -> str:
        return (
            f"Ticket(server={self.server}, client={self.client}, "
            f"addr={self.client_address}, t={self.timestamp}, "
            f"life={self.life})"
        )


def seal_ticket(ticket: Ticket, server_key: DesKey) -> bytes:
    """Encrypt a ticket in the target server's private key ({...}K_s)."""
    return seal(server_key, ticket.to_bytes())


# Trailing bytes of Ticket.to_bytes() that change per issuance: the
# timestamp (f64) and life (f64) fields plus the session_key bytes field
# (u32 length prefix + 8 key bytes).  Everything before them — server,
# client, address — repeats for every ticket a hot (client, server) pair
# is issued, which is what the skeleton cache exploits.
_TICKET_SUFFIX_LEN = 8 + 8 + 4 + 8


def seal_tickets_cached(
    items: Sequence[Tuple[Ticket, DesKey, DesKey, bytes]]
) -> Tuple[List[bytes], List[bytes]]:
    """Seal many tickets, each inside the reply that carries it, as one
    nested batch seal.  An item is ``(ticket, server_key, reply_key,
    body)``, ``body`` being the reply body encoded with its last field —
    the ticket, a ``bytes`` field — still empty: the field's length
    prefix and the sealed bytes are supplied here.  Returns ``(ticket
    blobs, sealed bodies)``, each blob bit-identical to
    :func:`seal_ticket` and each sealed body to the seal, under
    ``reply_key``, of the body with that blob in it.

    Only the per-issuance suffix (timestamp, life, session key) is
    re-encrypted of a ticket whose fixed prefix was sealed before under
    the same key.  The skeleton — the PCBC state ``[cipher_prefix,
    chain]`` after the seal header + server + client + address — lives
    in the process-wide skeleton cache under the literal (sealing key,
    total length, prefix plaintext) content, so a rotated service key
    or renamed principal can never hit a stale entry.  A miss reserves
    its entry *empty* and the ticket rides the run as a whole frame,
    beside the resumed ones; the state is then read off the finished
    seal rather than sealed a second time.  A later ticket of the same
    run that finds the entry still empty rides whole as well.
    """
    jobs = []
    unfilled = []
    for ticket, server_key, reply_key, body in items:
        plain = ticket.to_bytes()
        cut = max(0, len(plain) - _TICKET_SUFFIX_LEN) & ~0x7
        cache_key = (server_key.key_bytes, len(plain), plain[:cut])
        skeleton = keycache.skeleton_get(cache_key)
        if skeleton is None:
            skeleton = []
            keycache.skeleton_put(cache_key, skeleton)
        # Everything ahead of the ticket's bytes: the u32 prefix of the
        # empty field gives way to the sealed ticket's length.
        head = body[:-4] + sealed_length(len(plain)).to_bytes(4, "big")
        if skeleton:
            jobs.append((server_key, skeleton, plain[cut:], reply_key, head))
        else:
            unfilled.append((len(jobs), skeleton, plain, cut))
            jobs.append((server_key, SEAL_START, plain, reply_key, head))
    blobs, bodies = seal_nested_many(jobs)
    for index, skeleton, plain, cut in unfilled:
        skeleton[:] = sealed_prefix_state(plain, blobs[index], cut)
    return blobs, bodies


def decrypt_failure(what: str, exc: Exception) -> KerberosError:
    """A wrong key, a modified message, or garbage all map to
    ``RD_AP_MODIFIED`` — the indistinguishability is the point:
    tampering cannot be told apart from forgery."""
    error = KerberosError(
        ErrorCode.RD_AP_MODIFIED, f"{what} failed to decrypt: {exc}"
    )
    error.__cause__ = exc
    return error


def unseal_ticket(blob: bytes, server_key: DesKey) -> Ticket:
    """Decrypt and parse a ticket; only the named server (and the KDC that
    issued it) can do this."""
    try:
        return Ticket.from_bytes(unseal(server_key, blob))
    except (IntegrityError, DecodeError) as exc:
        raise decrypt_failure("ticket", exc)


def unseal_structs(
    struct: Type[WireStruct], what: str, items: Sequence[Tuple[bytes, DesKey]]
) -> List[Union[WireStruct, KerberosError]]:
    """Decrypt and parse many ``(blob, key)`` pairs in one batch run —
    tickets, or authenticators.  Returns, position for position, the
    parsed ``struct`` or the :class:`KerberosError` its single form
    (:func:`unseal_ticket`, ``unseal_authenticator``) would raise, so one
    bad item never poisons its batchmates."""
    opened: List[Union[WireStruct, KerberosError]] = []
    for plain in unseal_many([(key, blob) for blob, key in items]):
        if isinstance(plain, IntegrityError):
            opened.append(decrypt_failure(what, plain))
            continue
        try:
            opened.append(struct.from_bytes(plain))
        except DecodeError as exc:
            # Kept as a value: drop the traceback, which would tie this
            # frame (and ``opened``) into a reference cycle.
            opened.append(decrypt_failure(what, exc.with_traceback(None)))
    return opened
