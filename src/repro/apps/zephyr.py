"""The Zephyr notification service (paper Section 7.1).

*"A message delivery program, called Zephyr, has been recently developed
at Athena, and it uses Kerberos for authentication as well."*

The property Kerberos buys Zephyr: a notice's *sender* field is the
authenticated principal, not a claim — nobody can send a notice as
someone else.  Notices ride at the SAFE protection level (authenticated,
not secret), matching a campus notification system's needs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.kerberized import (
    KerberizedChannel,
    KerberizedServer,
    Protection,
)
from repro.core.applib import SrvTab
from repro.core.client import KerberosClient
from repro.core.errors import ErrorCode, KerberosError
from repro.encode import BatchReader, WireStruct, field, pack_frames
from repro.netsim.ports import ZEPHYR_PORT
from repro.principal import Principal


class Notice(WireStruct):
    """One Zephyr notice.  ``sender`` is filled in by the *server* from
    the authenticated session — clients cannot choose it."""

    FIELDS = (
        field("sender", "string"),
        field("recipient", "string"),
        field("opcode", "string"),     # e.g. "MESSAGE", "LOGIN"
        field("body", "string"),
    )


class ZephyrServer(KerberizedServer):
    """The zhm/zserver pair collapsed into one notice switchboard."""

    def __init__(
        self,
        service: Principal,
        srvtab: SrvTab,
        port: int = ZEPHYR_PORT,
    ) -> None:
        super().__init__(service, srvtab, port)
        self._queues: Dict[str, List[Notice]] = {}

    def handle(self, session, data: bytes) -> bytes:
        parts = data.decode("utf-8").split("\x00")
        command = parts[0]
        if command == "SEND":
            if len(parts) != 4:
                raise KerberosError(ErrorCode.APP_ERROR, "malformed SEND")
            _, recipient, opcode, body = parts
            notice = Notice(
                # The authenticated identity, not anything the client said.
                sender=str(session.client),
                recipient=recipient,
                opcode=opcode,
                body=body,
            )
            self._queues.setdefault(recipient, []).append(notice)
            return b"ACK"
        if command == "POLL":
            # A user may only read their own queue.
            queue = self._queues.pop(session.client.name, [])
            return pack_frames([notice.to_bytes() for notice in queue])
        raise KerberosError(ErrorCode.APP_ERROR, f"unknown command {command}")


class ZephyrClient:
    """zwrite/zwgc rolled together."""

    def __init__(
        self,
        krb: KerberosClient,
        service: Principal,
        server_address,
        port: int = ZEPHYR_PORT,
    ) -> None:
        self.channel = KerberizedChannel(
            krb, service, server_address, port, protection=Protection.SAFE
        )

    def zwrite(self, recipient: str, body: str, opcode: str = "MESSAGE") -> None:
        reply = self.channel.call(
            "\x00".join(["SEND", recipient, opcode, body]).encode("utf-8")
        )
        if reply != b"ACK":
            raise RuntimeError(f"zephyr send failed: {reply!r}")

    def poll(self) -> List[Notice]:
        """Fetch and clear this user's pending notices."""
        raw = self.channel.call(b"POLL")
        return [Notice.from_bytes(frame) for frame in BatchReader(raw)]

    def close(self) -> None:
        self.channel.close()
