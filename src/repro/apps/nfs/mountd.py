"""The modified mount daemon (the appendix).

*"We modified the mount daemon (which handles NFS mount requests on
server systems) to accept a new transaction type, the Kerberos
authentication mapping request.  Basically, as part of the mounting
process, the client system provides a Kerberos authenticator along with
an indication of her/his UID-ON-CLIENT (encrypted in the Kerberos
authenticator) on the workstation.  The server's mount daemon converts
the Kerberos principal name into a local username.  This username is
then looked up in a special file to yield the user's UID and GIDs list.
... From this information, an NFS credential is constructed and handed
to the kernel as the valid mapping of the ⟨CLIENT-IP-ADDRESS,
CLIENT-UID⟩ tuple for this request."*

Mappings installed here carry the authorising ticket's expiry: the
kernel map refuses to serve on a dead authentication, so a ticket
expiring mid-I/O forces the client back through this handshake.  A
failed ``krb_rd_req`` at mount time is a security event — it lands in
the audit log as ``auth_failure``, joined to the request's trace.
"""

from __future__ import annotations

from repro.apps.nfs.protocol import MountOp, MountReply, MountRequest
from repro.apps.nfs.server import NfsServer
from repro.core.applib import AuthenticatedService, SrvTab
from repro.core.errors import KerberosError
from repro.encode import DecodeError
from repro.netsim.ports import MOUNTD_PORT
from repro.principal import Principal


class MountDaemon(AuthenticatedService):
    """mountd on a fileserver, wired to that server's kernel map — which
    is the NfsServer's to lose in a crash; this daemon keeps only the
    durable replay cache it inherits."""

    def __init__(
        self,
        nfs_server: NfsServer,
        service: Principal,
        srvtab: SrvTab,
        port: int = MOUNTD_PORT,
    ) -> None:
        super().__init__(service, srvtab)
        self.nfs = nfs_server
        self.port = port

    def ports(self):
        return {self.port: self._handle}

    def on_attach(self) -> None:
        super().on_attach()
        self._mounts = self.metrics.family(
            "counter", "nfs.mounts_total", ("result",), {"server": self.host.name}
        )
        for result in ("mapped", "denied", "unmapped", "flushed"):
            self._mounts[result]

    def _handle(self, datagram) -> bytes:
        try:
            request = MountRequest.from_bytes(datagram.payload)
            op = MountOp(request.op)
        except (DecodeError, ValueError):
            return MountReply(ok=False, text="malformed mount request").to_bytes()

        with self.tracer.span(
            "nfs.mountd", under=datagram.trace,
            host=self.host.name, op=op.name,
        ) as span:
            if op == MountOp.MAP:
                return self._handle_map(request, datagram, span)
            if op == MountOp.UNMAP:
                # "At unmount time a request is sent to the mount daemon to
                # remove the previously added mapping."  Scoped to the
                # requesting address: you can only unmap your own machine.
                removed = self.nfs.credmap.delete(
                    datagram.src, request.uid_on_client
                )
                self._mounts["unmapped"].inc(1 if removed else 0)
                return MountReply(
                    ok=removed, text="unmapped" if removed else "no such mapping"
                ).to_bytes()
            if op == MountOp.LOGOUT:
                # "invalidate all mapping for the current user on the server
                # in question, thus cleaning up any remaining mappings."
                mapped = self.nfs.credmap.lookup(
                    datagram.src, request.uid_on_client,
                    now=self.host.clock.now(),
                )
                count = 0
                if mapped is not None:
                    count = self.nfs.credmap.flush_uid(mapped.uid)
                self._mounts["flushed"].inc(count)
                return MountReply(
                    ok=True, text=f"flushed {count} mappings"
                ).to_bytes()
            return MountReply(ok=False, text="unknown op").to_bytes()  # pragma: no cover

    def _handle_map(self, request: MountRequest, datagram, span) -> bytes:
        """The Kerberos authentication mapping request."""
        try:
            context = self.authenticate(
                request.ap_request, datagram, trace=span.trace_id
            )
        except (KerberosError, DecodeError) as exc:
            self._mounts["denied"].inc(1)
            return MountReply(ok=False, text=f"authentication failed: {exc}").to_bytes()

        # The UID-ON-CLIENT arrives sealed inside the authenticator (its
        # checksum field), so it cannot be tampered with in transit.
        uid_on_client = context.checksum

        # "converts the Kerberos principal name into a local username"
        # (the primary name) and looks it up in the passwd map.
        server_cred = self.nfs.passwd.credential_for(context.client.name)
        if server_cred is None:
            self.audit.emit(
                "acl_denial",
                host=self.host.name,
                principal=str(context.client),
                trace=span.trace_id,
                detail=f"no local account for {context.client.name}",
            )
            self._mounts["denied"].inc(1)
            return MountReply(
                ok=False,
                text=f"no local account for {context.client.name}",
            ).to_bytes()

        # The mapping lives exactly as long as the ticket that earned it.
        self.nfs.credmap.add(
            datagram.src, uid_on_client, server_cred,
            expires=context.ticket.expires,
        )
        self._mounts["mapped"].inc(1)
        return MountReply(
            ok=True,
            text=(
                f"mapped <{context.address},{uid_on_client}> -> "
                f"uid {server_cred.uid}"
            ),
        ).to_bytes()
