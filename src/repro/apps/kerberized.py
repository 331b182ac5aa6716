"""The common framework for Kerberizing an application (paper Section 6.2).

*"A programmer writing a Kerberos application will often be adding
authentication to an already existing network application consisting of
a client and server side.  We call this process 'Kerberizing' a
program."*

The framework packages the usual shape: the client authenticates once
when the session opens (``krb_mk_req`` / ``krb_rd_req``), then exchanges
application data at one of the paper's three protection levels
(Section 2.1):

* :attr:`Protection.NONE` — "authenticity ... established at the
  initiation of a network connection"; later messages are checked only
  against the session's network address (the level the authenticated
  NFS uses);
* :attr:`Protection.SAFE` — every message authenticated with a keyed
  checksum, content in the clear;
* :attr:`Protection.PRIVATE` — every message authenticated *and*
  encrypted.

Subclass :class:`KerberizedServer` and implement
:meth:`KerberizedServer.handle` to build a service;
:class:`KerberizedChannel` is the client side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.applib import AuthenticatedService, SrvTab, krb_mk_rep
from repro.core.client import KerberosClient
from repro.core.errors import KerberosError
from repro.core.messages import ApReply
from repro.core.replay import CLOCK_SKEW
from repro.core.safe_priv import Protection, protect, unprotect
from repro.crypto import DesKey
from repro.encode import DecodeError, WireStruct, field
from repro.netsim import IPAddress
from repro.principal import Principal


class OpenRequest(WireStruct):
    FIELDS = (
        field("ap_request", "bytes"),
        field("protection", "u8"),
        field("mutual", "bool"),
    )


class OpenReply(WireStruct):
    FIELDS = (
        field("ok", "bool"),
        field("session_id", "u32"),
        field("ap_reply", "bytes"),   # empty unless mutual
        field("text", "string"),
    )


class CallRequest(WireStruct):
    FIELDS = (
        field("session_id", "u32"),
        field("payload", "bytes"),    # wrapped per the session's protection
    )


class CallReply(WireStruct):
    FIELDS = (
        field("ok", "bool"),
        field("payload", "bytes"),
        field("text", "string"),
    )


class _Kind(enum.IntEnum):
    OPEN = 1
    CALL = 2
    CLOSE = 3


def _envelope(kind: _Kind, message: WireStruct) -> bytes:
    return bytes([int(kind)]) + message.to_bytes()


@dataclass
class AppSession:
    """Server-side state for one authenticated connection."""

    session_id: int
    client: Principal
    session_key: DesKey
    address: IPAddress
    protection: Protection


class KerberizedServer(AuthenticatedService):
    """Base class for a Kerberized network service."""

    def __init__(
        self,
        service: Principal,
        srvtab: SrvTab,
        port: int = 0,
        skew: float = CLOCK_SKEW,
    ) -> None:
        super().__init__(service, srvtab, skew)
        if not port:
            raise ValueError(f"{type(self).__name__} needs an explicit port")
        self.port = port
        self.sessions: Dict[int, AppSession] = {}
        self._next_session = 1

    def ports(self):
        return {self.port: self._dispatch}

    def on_crash(self) -> None:
        # Open sessions live in the daemon's memory: gone with it, and
        # their clients authenticate again.
        super().on_crash()
        self.sessions.clear()

    # -- subclass hooks ------------------------------------------------------

    def handle(self, session: AppSession, data: bytes) -> bytes:
        """Application logic: consume a request, produce a reply."""
        raise NotImplementedError

    def on_open(self, session: AppSession) -> None:
        """Called after a session authenticates (override if needed)."""

    def on_close(self, session: AppSession) -> None:
        """Called when a session closes (override if needed)."""

    # -- wire handling ----------------------------------------------------------

    def _dispatch(self, datagram) -> bytes:
        if not datagram.payload:
            return CallReply(ok=False, payload=b"", text="empty request").to_bytes()
        kind, body = datagram.payload[0], datagram.payload[1:]
        try:
            verb = _Kind(kind).name.lower()
        except ValueError:
            verb = "other"
        with self.tracer.span_under(
            datagram.trace,
            f"app.{verb}",
            host=self.host.name,
            service=str(self.service),
        ):
            try:
                if kind == _Kind.OPEN:
                    return self._handle_open(OpenRequest.from_bytes(body), datagram)
                if kind == _Kind.CALL:
                    return self._handle_call(CallRequest.from_bytes(body), datagram)
                if kind == _Kind.CLOSE:
                    return self._handle_close(CallRequest.from_bytes(body), datagram)
            except DecodeError as exc:
                return CallReply(
                    ok=False, payload=b"", text=f"undecodable request: {exc}"
                ).to_bytes()
            return CallReply(
                ok=False, payload=b"", text="unknown request kind"
            ).to_bytes()

    def _handle_open(self, request: OpenRequest, datagram) -> bytes:
        try:
            context = self.authenticate(request.ap_request, datagram)
        except (KerberosError, DecodeError) as exc:
            return OpenReply(
                ok=False, session_id=0, ap_reply=b"", text=str(exc)
            ).to_bytes()

        session = AppSession(
            session_id=self._next_session,
            client=context.client,
            session_key=context.session_key,
            address=IPAddress(datagram.src),
            protection=Protection(request.protection),
        )
        self._next_session += 1
        self.sessions[session.session_id] = session
        self.on_open(session)

        ap_reply = b""
        if request.mutual:
            ap_reply = krb_mk_rep(context).to_bytes()
        return OpenReply(
            ok=True,
            session_id=session.session_id,
            ap_reply=ap_reply,
            text=f"authenticated as {context.client}",
        ).to_bytes()

    def _session_for(self, request: CallRequest, datagram) -> Optional[AppSession]:
        session = self.sessions.get(request.session_id)
        if session is None:
            return None
        # Level-NONE security still "assume[s] that further messages from
        # a given network address originate from the authenticated party"
        # — so the address is always checked.
        if IPAddress(datagram.src) != session.address:
            return None
        return session

    def _handle_call(self, request: CallRequest, datagram) -> bytes:
        session = self._session_for(request, datagram)
        if session is None:
            return CallReply(
                ok=False, payload=b"", text="no such session (authenticate first)"
            ).to_bytes()
        try:
            data = unprotect(
                session.protection, request.payload, session.session_key,
                session.address, self.host.clock.now(), self.skew,
            )
        except (KerberosError, DecodeError) as exc:
            return CallReply(
                ok=False, payload=b"", text=f"message rejected: {exc}"
            ).to_bytes()
        try:
            result = self.handle(session, data)
        except KerberosError as exc:
            return CallReply(ok=False, payload=b"", text=str(exc)).to_bytes()
        wrapped = protect(
            session.protection, result, session.session_key,
            self.host.address, self.host.clock.now(),
        )
        return CallReply(ok=True, payload=wrapped, text="").to_bytes()

    def _handle_close(self, request: CallRequest, datagram) -> bytes:
        session = self._session_for(request, datagram)
        if session is not None:
            del self.sessions[session.session_id]
            self.on_close(session)
        return CallReply(ok=True, payload=b"", text="closed").to_bytes()


class ChannelError(Exception):
    """The server refused the session or a call."""


class KerberizedChannel:
    """Client side: authenticate once, then call."""

    def __init__(
        self,
        krb: KerberosClient,
        service: Principal,
        server_address,
        port: int,
        protection: Protection = Protection.NONE,
        mutual: bool = False,
    ) -> None:
        self.krb = krb
        self.service = service
        self.server_address = IPAddress(server_address)
        self.port = port
        self.protection = protection
        self.session_id: Optional[int] = None
        self._session_key: Optional[DesKey] = None
        self._open(mutual)

    def _open(self, mutual: bool) -> None:
        ap_request, cred, sent_ts = self.krb.mk_req(self.service, mutual=mutual)
        request = OpenRequest(
            ap_request=ap_request.to_bytes(),
            protection=int(self.protection),
            mutual=mutual,
        )
        raw = self.krb.host.rpc(
            self.server_address, self.port, _envelope(_Kind.OPEN, request)
        )
        reply = OpenReply.from_bytes(raw)
        if not reply.ok:
            raise ChannelError(f"authentication refused: {reply.text}")
        if mutual:
            # Figure 7: verify the server proved knowledge of the session
            # key before trusting anything it says.
            self.krb.rd_rep(ApReply.from_bytes(reply.ap_reply), sent_ts, cred)
        self.session_id = reply.session_id
        self._session_key = cred.session_key

    def call(self, data: bytes) -> bytes:
        if self.session_id is None:
            raise ChannelError("channel is closed")
        payload = protect(
            self.protection, data, self._session_key,
            self.krb.host.address, self.krb._auth_now(),
        )
        request = CallRequest(session_id=self.session_id, payload=payload)
        raw = self.krb.host.rpc(
            self.server_address, self.port, _envelope(_Kind.CALL, request)
        )
        reply = CallReply.from_bytes(raw)
        if not reply.ok:
            raise ChannelError(reply.text)
        return unprotect(
            self.protection, reply.payload, self._session_key,
            self.server_address, self.krb.host.clock.now(),
        )

    def close(self) -> None:
        if self.session_id is None:
            return
        request = CallRequest(session_id=self.session_id, payload=b"")
        self.krb.host.rpc(
            self.server_address, self.port, _envelope(_Kind.CLOSE, request)
        )
        self.session_id = None
        self._session_key = None
