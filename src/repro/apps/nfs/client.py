"""The workstation side of NFS (the appendix).

Covers both the mount-time Kerberos handshake (the shipped design) and
a per-RPC-Kerberos mode for reproducing the performance comparison that
justified rejecting it.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.apps.nfs.protocol import (
    MountOp,
    MountReply,
    MountRequest,
    NfsOp,
    NfsReply,
    NfsRequest,
)
from repro.core.client import KerberosClient
from repro.core.retry import RetryCounts, RetryExhausted, RetryPolicy, run_with_failover
from repro.netsim import Host, IPAddress, Unreachable
from repro.netsim.ports import MOUNTD_PORT, NFS_PORT
from repro.principal import Principal


class NfsClientError(Exception):
    """An NFS or mountd request failed."""


class NfsClient:
    """One workstation's connection to one fileserver."""

    def __init__(
        self,
        host: Host,
        server_address,
        uid_on_client: int,
        gids: Optional[List[int]] = None,
        nfs_port: int = NFS_PORT,
        mountd_port: int = MOUNTD_PORT,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.server_address = IPAddress(server_address)
        self.uid_on_client = int(uid_on_client)
        self.gids = list(gids) if gids else []
        self.nfs_port = nfs_port
        self.mountd_port = mountd_port
        #: None keeps the legacy single-attempt behaviour; a policy adds
        #: retransmission (requests are rebuilt per attempt, so any
        #: embedded authenticator is fresh and replay-cache-safe).
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(f"nfs:{host.name}")
        self._retry_counts = RetryCounts(host.network.metrics)
        # Per-RPC Kerberos mode state (the rejected design).
        self._per_rpc_krb: Optional[KerberosClient] = None
        self._per_rpc_service: Optional[Principal] = None
        #: Optional recovery hook: when a request is refused in a way
        #: that smells like a lost/expired kernel mapping, call this
        #: (it should redo the mount handshake) and retry the op once.
        self._remount: Optional[Callable[[], object]] = None

    def _rpc_with_retries(
        self, port: int, build_payload: Callable[[], bytes], op: str
    ) -> bytes:
        """One send-and-wait exchange under the retry policy; the payload
        is rebuilt fresh for every attempt."""
        if self.retry_policy is None:
            return self.host.rpc(self.server_address, port, build_payload())
        try:
            raw, _, _ = run_with_failover(
                self.retry_policy,
                self.host.network.runtime,
                [self.server_address],
                lambda address: self.host.rpc(address, port, build_payload()),
                rng=self._retry_rng,
                counts=self._retry_counts,
                op=op,
                retry_on=(Unreachable,),
            )
        except RetryExhausted as exc:
            raise Unreachable(
                f"{op} at {self.server_address}:{port} unreachable after "
                f"{exc.attempts} attempt(s): {exc.last_error}"
            ) from exc
        return raw

    # -- mount-time Kerberos (the shipped hybrid) --------------------------

    def kerberos_mount(
        self, krb: KerberosClient, mount_service: Principal
    ) -> str:
        """Send the Kerberos authentication mapping request: an
        authenticator with our UID-ON-CLIENT sealed inside it.  Each
        retransmission carries a *fresh* authenticator — mountd keeps a
        replay cache, so a verbatim resend after a lost reply would be
        rejected."""

        def build() -> bytes:
            ap_request, _, _ = krb.mk_req(
                mount_service, checksum=self.uid_on_client
            )
            return MountRequest(
                op=int(MountOp.MAP),
                ap_request=ap_request.to_bytes(),
                uid_on_client=0,
            ).to_bytes()

        raw = self._rpc_with_retries(self.mountd_port, build, op="mountd")
        reply = MountReply.from_bytes(raw)
        if not reply.ok:
            raise NfsClientError(f"mount failed: {reply.text}")
        return reply.text

    def unmount(self) -> bool:
        reply = self._mountd(
            MountRequest(
                op=int(MountOp.UNMAP),
                ap_request=b"",
                uid_on_client=self.uid_on_client,
            )
        )
        return reply.ok

    def logout(self) -> str:
        """Invalidate every mapping for this user on the server."""
        reply = self._mountd(
            MountRequest(
                op=int(MountOp.LOGOUT),
                ap_request=b"",
                uid_on_client=self.uid_on_client,
            )
        )
        return reply.text

    def _mountd(self, request: MountRequest) -> MountReply:
        raw = self._rpc_with_retries(
            self.mountd_port, request.to_bytes, op="mountd"
        )
        return MountReply.from_bytes(raw)

    # -- mapping-loss recovery ------------------------------------------------

    def set_remount(self, remount: Optional[Callable[[], object]]) -> None:
        """Install a recovery hook.  The kernel map is volatile (ticket
        expiry purges entries; a server crash loses the whole table), so
        a long-lived client must be able to re-run the mount handshake
        mid-I/O.  When a call fails with a mapping-loss signature the
        hook runs once and the operation is retried."""
        self._remount = remount

    def enable_auto_remount(
        self, krb: KerberosClient, mount_service: Principal
    ) -> None:
        """The common hook: redo :meth:`kerberos_mount` with the given
        client — fresh authenticator, fresh mapping."""
        self.set_remount(lambda: self.kerberos_mount(krb, mount_service))

    #: Refusal texts that mean "your mapping is gone", not "you may not".
    #: ``stale mapping`` is the server's explicit expiry verdict; the
    #: access-error/permission texts are what an unmapped request decays
    #: to under the unfriendly and friendly policies respectively.
    _REMOUNTABLE = ("stale mapping", "NFS access error", "permission denied")

    @classmethod
    def _mapping_lost(cls, text: str) -> bool:
        return any(marker in text for marker in cls._REMOUNTABLE)

    # -- per-RPC Kerberos (the rejected design, for exp NFS) ------------------

    def enable_per_rpc_kerberos(
        self, krb: KerberosClient, nfs_service: Principal
    ) -> None:
        """Attach full Kerberos authentication to every transaction."""
        self._per_rpc_krb = krb
        self._per_rpc_service = nfs_service

    # -- file operations ----------------------------------------------------------

    def _call(
        self,
        op: NfsOp,
        path: str,
        data: bytes = b"",
        mode: int = 0,
    ) -> NfsReply:
        def build() -> bytes:
            ap_bytes = b""
            if self._per_rpc_krb is not None:
                # The cost the authors balked at: fresh authenticator per
                # op, full ticket + authenticator decryption on the server
                # (and rebuilt per retransmission for replay safety).
                ap_request, _, _ = self._per_rpc_krb.mk_req(
                    self._per_rpc_service
                )
                ap_bytes = ap_request.to_bytes()
            return NfsRequest(
                op=int(op),
                path=path,
                data=data,
                mode=mode,
                claimed_uid=self.uid_on_client,
                claimed_gids=self.gids,
                ap_request=ap_bytes,
            ).to_bytes()

        raw = self._rpc_with_retries(self.nfs_port, build, op="nfs")
        reply = NfsReply.from_bytes(raw)
        if not reply.ok:
            if self._remount is not None and self._mapping_lost(reply.text):
                # One re-mount, one retry: if the refusal really was a
                # lost mapping the fresh handshake repairs it; a genuine
                # permission denial fails again and surfaces as-is.
                self._remount()
                raw = self._rpc_with_retries(self.nfs_port, build, op="nfs")
                reply = NfsReply.from_bytes(raw)
                if reply.ok:
                    return reply
            raise NfsClientError(reply.text)
        return reply

    def getattr(self, path: str) -> Tuple[int, int, int, int]:
        parts = self._call(NfsOp.GETATTR, path).text.split(":")
        return (int(parts[0]), int(parts[1]), int(parts[2], 8), int(parts[3]))

    def read(self, path: str) -> bytes:
        return self._call(NfsOp.READ, path).data

    def write(self, path: str, data: bytes) -> int:
        return int(self._call(NfsOp.WRITE, path, data=data).text)

    def create(self, path: str, mode: int = 0o644) -> None:
        self._call(NfsOp.CREATE, path, mode=mode)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._call(NfsOp.MKDIR, path, mode=mode)

    def remove(self, path: str) -> None:
        self._call(NfsOp.REMOVE, path)

    def readdir(self, path: str) -> List[str]:
        return self._call(NfsOp.READDIR, path).names

    def chmod(self, path: str, mode: int) -> None:
        self._call(NfsOp.CHMOD, path, mode=mode)

    def rename(self, old: str, new: str) -> None:
        self._call(NfsOp.RENAME, old, data=new.encode("utf-8"))
