"""Kerberos authenticators (paper Section 4.1, Figure 4).

*"Unlike the ticket, the authenticator can only be used once.  A new one
must be generated each time a client wants to use a service.  This does
not present a problem because the client is able to build the
authenticator itself."*

Figure 4::

    {c, addr, timestamp} K_s,c

The authenticator is sealed in the *session key* carried inside the
ticket, so a thief who copies a ticket off the wire cannot build a fresh
authenticator for it — proving possession of the session key is what
ties the presenter to the ticket's rightful owner.

The optional ``checksum`` field carries the application-data checksum
that ``krb_mk_req`` accepts ("and possibly a checksum of the data to be
sent", Section 6.2); zero when unused.
"""

from __future__ import annotations

from repro.crypto import DesKey, IntegrityError, seal, unseal
from repro.core.ticket import decrypt_failure
from repro.encode import DecodeError, WireStruct, field
from repro.netsim import IPAddress
from repro.principal import Principal


class Authenticator(WireStruct):
    """Plaintext content of an authenticator — Figure 4 plus the
    Section 6.2 data checksum."""

    FIELDS = (
        field("client", Principal),   # c
        field("address", "u32"),      # addr (the workstation's IP address)
        field("timestamp", "f64"),    # the current workstation time
        field("checksum", "u32"),     # krb_mk_req's optional data checksum
    )

    @property
    def client_address(self) -> IPAddress:
        return IPAddress(self.address)

    def __repr__(self) -> str:
        return (
            f"Authenticator(client={self.client}, "
            f"addr={self.client_address}, t={self.timestamp})"
        )


def build_authenticator(
    client: Principal,
    address: IPAddress,
    now: float,
    session_key: DesKey,
    checksum: int = 0,
) -> bytes:
    """Create and seal a fresh authenticator ({c, addr, timestamp}K_s,c)."""
    auth = Authenticator(
        client=client,
        address=IPAddress(address).as_int,
        timestamp=now,
        checksum=checksum,
    )
    return seal(session_key, auth.to_bytes())


def unseal_authenticator(blob: bytes, session_key: DesKey) -> Authenticator:
    """Decrypt an authenticator with the session key from the ticket."""
    try:
        return Authenticator.from_bytes(unseal(session_key, blob))
    except (IntegrityError, DecodeError) as exc:
        raise decrypt_failure("authenticator", exc)
