"""The wire plane: what someone watching the network sees.

:class:`WireRecorder` is the one owner of a network tap: it records each
datagram (that ``match`` accepts) with its sim time, and renders it as a
Figure 9 line — Kerberos messages decoded to their cleartext fields,
sealed parts left sealed — tagged ``rid=`` with the trace ID the datagram
carries, so wire lines join the span tree (``render_report(wire=...)``).
The eavesdropper and the replayer of :mod:`repro.threat` are recorders.

Not imported by ``repro.obs`` itself: the network imports ``repro.obs``,
and this module imports the network and the message decoder.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from repro.core.errors import KerberosError
from repro.core.messages import (
    ApRequest,
    AsRequest,
    ErrorReply,
    KdcReply,
    MessageType,
    PreauthAsRequest,
    TgsRequest,
    decode_message,
)
from repro.netsim.network import Datagram, EPHEMERAL_PORT, Network
from repro.netsim.ports import KERBEROS_PORT, port_name


def describe_payload(
    payload: bytes, dst_port: int, src_port: Optional[int] = None
) -> str:
    """Best-effort one-line description of a datagram's contents.

    Kerberos decoding is attempted when *either* end of the datagram is
    the Kerberos port — KDC replies travel back to the client's
    ephemeral port, so the destination alone does not identify them.
    When the source port is unknown (older callers), any datagram headed
    to an ephemeral port is still tried, as before.
    """
    kerberos_ish = KERBEROS_PORT in (dst_port, src_port) or (
        src_port is None and dst_port == EPHEMERAL_PORT
    )
    if not kerberos_ish:
        return f"[{len(payload)} bytes]"
    try:
        mtype, message = decode_message(payload)
    except KerberosError:
        return f"[{len(payload)} bytes]"
    if isinstance(message, AsRequest):
        return (f"AS-REQ  client={message.client} "
                f"service={message.service} life={message.requested_life:.0f}s")
    if isinstance(message, PreauthAsRequest):
        return (f"AS-REQ* client={message.client} "
                f"service={message.service} "
                f"preauth=[{len(message.preauth)}B sealed]")
    if isinstance(message, TgsRequest):
        return (f"TGS-REQ service={message.service} "
                f"tgt_realm={message.tgt_realm} "
                f"tgt=[{len(message.tgt)}B sealed] "
                f"authenticator=[{len(message.authenticator)}B sealed]")
    if isinstance(message, KdcReply):
        kind = "AS-REP " if mtype == MessageType.AS_REP else "TGS-REP"
        return (f"{kind} client={message.client} "
                f"body=[{len(message.sealed_body)}B sealed]")
    if isinstance(message, ApRequest):
        return (f"AP-REQ  ticket=[{len(message.ticket)}B sealed] "
                f"mutual={message.mutual} kvno={message.kvno}")
    if isinstance(message, ErrorReply):
        return f"ERROR   code={message.code} {message.text!r}"
    return f"{mtype.name} [{len(payload)} bytes]"


class WireRecord(NamedTuple):
    """One observed datagram and the simulated time it crossed the wire."""

    time: float
    datagram: Datagram

    @property
    def request_id(self) -> Optional[str]:
        """The trace ID the datagram carries, or None (no span open)."""
        trace = self.datagram.trace
        return None if trace is None else trace.trace_id

    def format(self) -> str:
        d, rid = self.datagram, self.request_id
        tag = f"  rid={rid}" if rid else ""
        return (
            f"{self.time:>10.3f}  {str(d.src):>15} -> "
            f"{str(d.dst):<15} {port_name(d.dst_port):<9} "
            f"{describe_payload(d.payload, d.dst_port, d.src_port)}{tag}"
        )


class WireRecorder:
    """Records the datagrams ``match`` accepts (all, by default) from
    the moment it is built until :meth:`detach`."""

    def __init__(
        self,
        net: Network,
        match: Optional[Callable[[Datagram], bool]] = None,
    ) -> None:
        self.net = net
        self.match = match
        self.records: List[WireRecord] = []
        net.add_tap(self._on_datagram)

    def _on_datagram(self, datagram: Datagram) -> None:
        if self.match is None or self.match(datagram):
            self.records.append(WireRecord(self.net.clock.now(), datagram))

    @property
    def captured(self) -> List[Datagram]:
        """The recorded datagrams, oldest first."""
        return [record.datagram for record in self.records]

    def for_request(self, request_id: str) -> List[WireRecord]:
        """The datagrams that crossed the wire under one request ID."""
        return [r for r in self.records if r.request_id == request_id]

    def by_request(self) -> Dict[Optional[str], List[WireRecord]]:
        """Every record grouped by request ID in one pass (None: no span)."""
        groups: Dict[Optional[str], List[WireRecord]] = {}
        for record in self.records:
            groups.setdefault(record.request_id, []).append(record)
        return groups

    def detach(self) -> None:
        self.net.remove_tap(self._on_datagram)

    def format(self) -> str:
        return "\n".join(record.format() for record in self.records)

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)
