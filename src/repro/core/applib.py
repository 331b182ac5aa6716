"""The Kerberos applications library (paper Sections 2.2 and 6.2).

*"The most commonly used library functions are krb_mk_req on the client
side, and krb_rd_req on the server side."*  This module provides both,
plus the server-side key file:

* :func:`krb_mk_req` — build the message a client sends with its first
  request to a Kerberized service (ticket + fresh authenticator);
* :func:`krb_rd_req` — the server side: decrypt the ticket with the
  service key, decrypt the authenticator with the enclosed session key,
  and run every check Section 4.3 lists (identity match, address match,
  freshness, replay, expiry).  Returns a judgement in the form of an
  :class:`AuthContext` or raises :class:`KerberosError`;
* :func:`krb_mk_rep` / :func:`krb_rd_rep` — mutual authentication
  (Figure 7);
* :class:`SrvTab` — the in-memory form of ``/etc/srvtab``, which
  "authenticates the server as a password typed at a terminal
  authenticates the user" (Section 6.3);
* :class:`AuthenticatedService` — the base of every daemon that accepts
  a ticket: the one :func:`krb_rd_req` call site and the one replay
  cache, which no crash forgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.crypto import DesKey
from repro.core.authenticator import (
    Authenticator,
    build_authenticator,
    unseal_authenticator,
)
from repro.core.errors import ErrorCode, KerberosError
from repro.core.messages import ApReply, ApRequest
from repro.core.replay import CLOCK_SKEW, ReplayCache
from repro.core.service import Service
from repro.core.ticket import Ticket, unseal_ticket
from repro.database.admin_tools import parse_srvtab
from repro.encode import DecodeError
from repro.netsim import IPAddress
from repro.principal import Principal


class SrvTab:
    """Service keys installed on a server's machine (``/etc/srvtab``)."""

    def __init__(self) -> None:
        self._keys: Dict[Tuple[str, int], DesKey] = {}
        self._latest: Dict[str, int] = {}

    def install(self, service: Principal, kvno: int, key: DesKey) -> None:
        name = str(service)
        self._keys[(name, kvno)] = key
        self._latest[name] = max(self._latest.get(name, 0), kvno)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SrvTab":
        """Load the file ext_srvtab produced."""
        tab = cls()
        for principal, kvno, key_bytes in parse_srvtab(data):
            tab.install(principal, kvno, DesKey(key_bytes, allow_weak=True))
        return tab

    def key_for(self, service: Principal, kvno: Optional[int] = None) -> DesKey:
        name = str(service)
        if kvno is None:
            kvno = self._latest.get(name, 0)
        try:
            return self._keys[(name, kvno)]
        except KeyError:
            raise KerberosError(
                ErrorCode.RD_AP_VERSION,
                f"no key for {name} version {kvno} in srvtab",
            ) from None

    def services(self):
        return sorted(self._latest)

    def __len__(self) -> int:
        return len(self._keys)


@dataclass
class AuthContext:
    """krb_rd_req's judgement: who the client is, and the shared key.

    "At the end of this exchange, the server is certain that, according
    to Kerberos, the client is who it says it is.  Moreover, the client
    and server share a key which no one else knows."
    """

    client: Principal
    session_key: DesKey
    address: IPAddress
    authenticator_timestamp: float
    ticket: Ticket
    checksum: int


def krb_mk_req(
    ticket_blob: bytes,
    session_key: DesKey,
    client: Principal,
    client_address: IPAddress,
    now: float,
    mutual: bool = False,
    kvno: int = 1,
    checksum: int = 0,
) -> ApRequest:
    """Client side of Figure 6: package the ticket with a fresh
    authenticator sealed in the session key."""
    authenticator = build_authenticator(
        client=client,
        address=client_address,
        now=now,
        session_key=session_key,
        checksum=checksum,
    )
    return ApRequest(
        ticket=ticket_blob,
        authenticator=authenticator,
        mutual=mutual,
        kvno=kvno,
    )


def krb_rd_req(
    request: ApRequest,
    service: Principal,
    service_key_or_srvtab,
    packet_address: IPAddress,
    now: float,
    replay_cache: Optional[ReplayCache] = None,
    skew: float = CLOCK_SKEW,
) -> AuthContext:
    """Server side of Figure 6, running the full Section 4.3 checklist.

    *"the server decrypts the ticket, uses the session key included in
    the ticket to decrypt the authenticator, compares the information in
    the ticket with that in the authenticator, the IP address from which
    the request was received, and the present time.  If everything
    matches, it allows the request to proceed."*

    The two unseals and the two halves of the checklist are separate
    functions so the KDC's pipeline can run each unseal across a whole
    batch; this is their composition for one request, the application
    servers' front door.
    """
    if isinstance(service_key_or_srvtab, SrvTab):
        service_key = service_key_or_srvtab.key_for(service, request.kvno)
    else:
        service_key = service_key_or_srvtab

    ticket = unseal_ticket(request.ticket, service_key)
    check_ticket(ticket, service, now, skew)
    auth = unseal_authenticator(request.authenticator, ticket.key)
    return check_authenticator(
        ticket, auth, packet_address, now, replay_cache, skew
    )


def check_ticket(
    ticket: Ticket, service: Principal, now: float, skew: float = CLOCK_SKEW
) -> None:
    """The checklist's first half, on the decrypted ticket alone — what
    must hold before its session key is used on the authenticator."""
    # The ticket must actually be for us — a ticket for another service
    # sealed under (somehow) the same key is still rejected.
    if not ticket.server.same_entity(service):
        raise KerberosError(
            ErrorCode.RD_AP_MODIFIED,
            f"ticket is for {ticket.server}, this service is {service}",
        )

    # Ticket validity window.
    if ticket.expired(now, skew):
        raise KerberosError(
            ErrorCode.RD_AP_EXP,
            f"ticket expired at {ticket.expires:.0f}, now {now:.0f}",
        )
    if ticket.not_yet_valid(now, skew):
        raise KerberosError(
            ErrorCode.RD_AP_NYV,
            f"ticket not valid until {ticket.timestamp:.0f}, now {now:.0f}",
        )


def check_authenticator(
    ticket: Ticket,
    auth: Authenticator,
    packet_address: IPAddress,
    now: float,
    replay_cache: Optional[ReplayCache] = None,
    skew: float = CLOCK_SKEW,
) -> AuthContext:
    """The checklist's second half, on the decrypted authenticator:
    identity, address, freshness, replay.  Consults (and feeds) the
    replay cache, so a batch must call it in arrival order."""
    # "compares the information in the ticket with that in the
    # authenticator" — same client...
    if not auth.client.same_entity(ticket.client):
        raise KerberosError(
            ErrorCode.RD_AP_PRINCIPAL,
            f"authenticator names {auth.client}, ticket names {ticket.client}",
        )
    # ... same address, which must also be "the IP address from which the
    # request was received".
    packet_addr = IPAddress(packet_address)
    if auth.address != ticket.address or packet_addr.as_int != ticket.address:
        raise KerberosError(
            ErrorCode.RD_AP_BADD,
            f"address mismatch: ticket {ticket.client_address}, "
            f"authenticator {auth.client_address}, packet {packet_addr}",
        )

    # "If the time in the request is too far in the future or the past,
    # the server treats the request as an attempt to replay."
    if abs(now - auth.timestamp) > skew:
        raise KerberosError(
            ErrorCode.RD_AP_TIME,
            f"authenticator time {auth.timestamp:.0f} outside +/-{skew:.0f}s "
            f"of server time {now:.0f}",
        )

    # "a request received with the same ticket and time stamp as one
    # already received can be discarded."
    if replay_cache is not None:
        fresh = replay_cache.check_and_store(
            str(auth.client), auth.address, auth.timestamp, now
        )
        if not fresh:
            raise KerberosError(
                ErrorCode.RD_AP_REPEAT,
                f"authenticator from {auth.client} at {auth.timestamp:.0f} "
                "already seen (replay)",
            )

    return AuthContext(
        client=ticket.client,
        session_key=ticket.key,
        address=IPAddress(ticket.address),
        authenticator_timestamp=auth.timestamp,
        ticket=ticket,
        checksum=auth.checksum,
    )


def krb_mk_rep(context: AuthContext) -> ApReply:
    """Server side of Figure 7: prove knowledge of the session key by
    returning {authenticator timestamp + 1} sealed in it."""
    return ApReply.build(context.authenticator_timestamp, context.session_key)


def krb_rd_rep(reply: ApReply, sent_timestamp: float, session_key: DesKey) -> None:
    """Client side of Figure 7: verify the server's proof.  Raises on a
    masquerading server (which cannot produce the seal)."""
    reply.verify(sent_timestamp, session_key)


class AuthenticatedService(Service):
    """A daemon that accepts tickets: the front door.

    Owns what Section 4.3 asks of a server — its principal, where its
    key lives (``keys``: the machine's :class:`SrvTab`, or on a Kerberos
    machine the database holding the principal's row), the ``skew`` it
    tolerates and the :class:`ReplayCache`.  All of it is durable: the
    cache is built on the first attach and kept through every crash,
    detach and re-attach, so a restarted daemon refuses exactly what
    the steady state refuses.  What a subclass builds in its own
    ``on_attach`` (sessions, kernel maps, queues) is its volatile state.
    """

    def __init__(
        self, service: Optional[Principal], keys, skew: float = CLOCK_SKEW
    ) -> None:
        super().__init__()
        self.service = service
        self.keys = keys
        self.skew = skew
        self.auth_failures = 0
        self.replay_cache: Optional[ReplayCache] = None

    def on_attach(self) -> None:
        if self.replay_cache is None:
            self.replay_cache = ReplayCache(
                window=self.skew,
                metrics=self.metrics,
                labels={"server": self.host.name, "service": str(self.service)},
                audit=self.audit,
                host=self.host.name,
            )

    def authenticate(self, ap_request: bytes, datagram, trace=None) -> AuthContext:
        """Figure 6 for one datagram: decode the AP request it carries
        and run :func:`krb_rd_req` against this service's key, cache and
        clock.  A refusal is counted and audited (``auth_failure``,
        joined to ``trace`` — the datagram's own unless the caller's
        span has a better one) and then raised for the caller to shape
        into its own reply: :class:`KerberosError`, or
        :class:`DecodeError` for bytes that are no AP request at all."""
        keys = self.keys
        if not isinstance(keys, SrvTab):
            keys = keys.principal_key(self.service)
        try:
            return krb_rd_req(
                ApRequest.from_bytes(ap_request),
                self.service,
                keys,
                datagram.src,
                self.host.clock.now(),
                self.replay_cache,
                self.skew,
            )
        except (KerberosError, DecodeError) as exc:
            self.auth_failures += 1
            self.audit.emit(
                "auth_failure",
                host=self.host.name,
                trace=datagram.trace if trace is None else trace,
                detail=f"{self.service} refused: {exc}",
            )
            raise
