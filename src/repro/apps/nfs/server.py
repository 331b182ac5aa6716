"""The NFS server under each of the appendix's three designs.

:class:`~repro.apps.nfs.config.AuthMode` selects the world:

* ``TRUSTED`` — unmodified NFS with this workstation trusted: the
  claimed credential is used as-is.  "It is possible from a trusted
  workstation to masquerade as any valid user of the file service
  system" — the threat tests demonstrate exactly that;
* ``UNTRUSTED`` — unmodified NFS, workstation not trusted: every
  request is refused;
* ``MAPPED`` — the shipped hybrid: the kernel map converts
  ⟨CLIENT-IP-ADDRESS, UID-ON-CLIENT⟩ per transaction, set up at mount
  time by Kerberos (see :mod:`repro.apps.nfs.mountd`);
* ``KERBEROS_RPC`` — the rejected design: a full Kerberos
  authentication request in *every* NFS transaction ("would have
  delivered unacceptable performance" — benchmarked in exp NFS).

Since the fleet PR the server is driven by a declarative
:class:`~repro.apps.nfs.config.NfsExportConfig`: auth mode, unmapped
policy, export paths with read-only/squash/client-range options.
:meth:`NfsServer.apply_config` swaps the whole document at runtime —
an auth-mode change flushes the kernel map, since its entries were
authorised under the old design.  The map is volatile kernel state: a
host crash (``on_crash``) loses it, and in-flight clients must recover
through mountd.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Tuple

from repro.apps.nfs.config import AuthMode, ExportSpec, NfsExportConfig, SquashMode
from repro.apps.nfs.credmap import CredentialMap, UnmappedPolicy
from repro.apps.nfs.fs import FileSystem, FsError, NfsCredential
from repro.apps.nfs.protocol import NfsOp, NfsReply, NfsRequest
from repro.core.applib import AuthenticatedService, SrvTab
from repro.core.errors import KerberosError
from repro.apps.nfs.passwd import PasswdMap
from repro.encode import DecodeError
from repro.netsim.ports import NFS_PORT
from repro.principal import Principal

#: The error text a client sees when its kernel mapping outlived its
#: ticket or died with a crashed server — the cue to re-mount.
STALE_MAPPING = "stale mapping: re-mount required"

#: Operations that modify the tree — what a read-only export refuses.
WRITE_OPS = frozenset({
    NfsOp.WRITE, NfsOp.CREATE, NfsOp.MKDIR,
    NfsOp.REMOVE, NfsOp.CHMOD, NfsOp.RENAME,
})


class NfsServer(AuthenticatedService):
    """One fileserver, serving its tree under a declarative config."""

    def __init__(
        self,
        fs: Optional[FileSystem] = None,
        mode: Optional[AuthMode] = None,
        unmapped_policy: Optional[UnmappedPolicy] = None,
        service: Optional[Principal] = None,
        srvtab: Optional[SrvTab] = None,
        passwd: Optional[PasswdMap] = None,
        port: int = NFS_PORT,
        config: Optional[NfsExportConfig] = None,
    ) -> None:
        # The service identity and key matter in KERBEROS_RPC mode only.
        super().__init__(service, srvtab)
        self.fs = fs if fs is not None else FileSystem()
        # The classic keyword signature builds a whole-tree config; an
        # explicit config document wins over the shorthand keywords.
        if config is None:
            config = NfsExportConfig(
                auth_mode=mode if mode is not None else AuthMode.MAPPED,
                unmapped_policy=(
                    unmapped_policy if unmapped_policy is not None
                    else UnmappedPolicy.FRIENDLY
                ),
            )
        self.config = config
        self.port = port
        self.passwd = passwd if passwd is not None else PasswdMap()

    # -- the declarative view ---------------------------------------------------

    @property
    def mode(self) -> AuthMode:
        return self.config.auth_mode

    @property
    def unmapped_policy(self) -> UnmappedPolicy:
        return self.config.unmapped_policy

    def apply_config(self, config: NfsExportConfig) -> list:
        """Swap the running configuration for a new document (TrueNAS
        config-restore style) and return the change list applied.

        Changing the auth mode flushes the kernel map: every entry in
        it was authorised under the *old* design, and e.g. a
        TRUSTED-era mapping must not survive into a MAPPED world."""
        config.validate()
        changes = self.config.diff(config)
        mode_changed = config.auth_mode != self.config.auth_mode
        self.config = config
        if self.attached:
            if mode_changed:
                self.credmap.clear()
            self.metrics.counter(
                "nfs.config_applies_total", {"server": self.host.name}
            ).inc(1)
        return changes

    def ports(self):
        return {self.port: self._handle}

    def on_attach(self) -> None:
        super().on_attach()
        # Counters for the appendix benchmark — all in the network's
        # registry, labelled by server host and auth mode so the three
        # designs can be compared from one snapshot.
        self.credmap = CredentialMap(
            metrics=self.metrics, labels={"server": self.host.name}
        )
        self.metrics.counter("nfs.access_errors_total", self._labels)
        self.metrics.counter("nfs.kerberos_verifications_total", self._labels)

    def on_crash(self) -> None:
        """The kernel map is volatile state too: in-flight clients'
        mappings are gone — they recover by re-running the mountd
        handshake."""
        super().on_crash()
        lost = self.credmap.clear()
        if lost:
            self.metrics.counter(
                "nfs.map_losses_total", {"server": self.host.name}
            ).inc(lost)

    @property
    def _labels(self) -> dict:
        return {"server": self.host.name, "mode": self.mode.value}

    # -- registry-backed views of the classic counters --------------------------

    @property
    def ops(self) -> Counter:
        """Per-op request counts, as the familiar Counter shape."""
        out: Counter = Counter()
        for inst in self.metrics.instruments("nfs.rpc_total"):
            labels = inst.labels_dict
            if labels.get("server") == self.host.name and inst.value:
                out[labels["op"]] += int(inst.value)
        return out

    @property
    def kerberos_verifications(self) -> int:
        return int(self.metrics.total(
            "nfs.kerberos_verifications_total", **self._labels
        ))

    # -- credential resolution: the heart of the appendix ----------------------

    def _resolve_credential(
        self, request: NfsRequest, datagram, span
    ) -> Tuple[Optional[NfsCredential], str]:
        """Apply the server's trust design to one request.  Returns the
        credential, or ``(None, error-text)`` for a refusal."""
        if self.mode == AuthMode.TRUSTED:
            # "Trusted systems are completely trusted."
            return NfsCredential(
                uid=request.claimed_uid, gids=tuple(request.claimed_gids)
            ), ""

        if self.mode == AuthMode.UNTRUSTED:
            # "Untrusted systems cannot access any files at all."
            return None, "NFS access error"

        if self.mode == AuthMode.MAPPED:
            # "The CLIENT-IP-ADDRESS is extracted from the NFS request
            # packet and the UID-ON-CLIENT is extracted from the
            # credential supplied by the client system."
            mapped, status = self.credmap.resolve(
                datagram.src, request.claimed_uid,
                now=self.host.clock.now(),
            )
            if mapped is not None:
                return mapped, ""
            if status == "expired":
                # The authorising ticket's lifetime is up.  Never serve
                # on a dead authentication — not even as nobody.
                self.metrics.counter(
                    "nfs.stale_mappings_total", {"server": self.host.name}
                ).inc(1)
                return None, STALE_MAPPING
            if self.unmapped_policy == UnmappedPolicy.FRIENDLY:
                return NfsCredential.nobody(), ""
            self.audit.emit(
                "acl_denial",
                host=self.host.name,
                trace=span.trace_id,
                detail=(
                    f"unfriendly refusal: no mapping for "
                    f"<{datagram.src},{request.claimed_uid}>"
                ),
            )
            return None, "NFS access error"

        # KERBEROS_RPC: the rejected design — full verification per op.
        if self.service is None or self.keys is None:
            return None, "NFS access error"
        try:
            context = self.authenticate(
                request.ap_request, datagram, trace=span.trace_id
            )
        except (KerberosError, DecodeError):
            return None, "NFS access error"
        self.metrics.counter(
            "nfs.kerberos_verifications_total", self._labels
        ).inc()
        cred = self.passwd.credential_for(context.client.name)
        if cred is None:
            return None, "NFS access error"
        return cred, ""

    # -- request handling ------------------------------------------------------------

    def _deny_export(self, span, reason: str, text: str) -> bytes:
        """Refuse a request on export-policy grounds (not exported, bad
        client range, read-only) — counted and audit-logged."""
        self.metrics.counter(
            "nfs.exports_denied_total",
            {"server": self.host.name, "reason": reason},
        ).inc(1)
        self.audit.emit(
            "acl_denial",
            host=self.host.name,
            trace=span.trace_id,
            detail=f"export policy ({reason}): {text}",
        )
        return NfsReply(ok=False, data=b"", names=[], text=text).to_bytes()

    def _handle(self, datagram) -> bytes:
        try:
            request = NfsRequest.from_bytes(datagram.payload)
            op = NfsOp(request.op)
        except (DecodeError, ValueError):
            return NfsReply(
                ok=False, data=b"", names=[], text="malformed NFS request"
            ).to_bytes()
        self.metrics.counter(
            "nfs.rpc_total", {**self._labels, "op": op.name}
        ).inc()

        with self.tracer.span_under(
            datagram.trace,
            "nfs.rpc",
            host=self.host.name,
            op=op.name,
            mode=self.mode.value,
        ) as span:
            export = self.config.export_for(request.path)
            if export is None:
                return self._deny_export(
                    span, "not_exported",
                    f"{request.path} is not exported",
                )
            if not export.admits(datagram.src):
                return self._deny_export(
                    span, "client_range",
                    f"client {datagram.src} not permitted on {export.path}",
                )
            if export.read_only and op in WRITE_OPS:
                return self._deny_export(
                    span, "read_only",
                    f"read-only export {export.path}",
                )

            cred, error = self._resolve_credential(request, datagram, span)
            if cred is None:
                self.metrics.counter(
                    "nfs.access_errors_total", self._labels
                ).inc()
                return NfsReply(
                    ok=False, data=b"", names=[], text=error
                ).to_bytes()
            cred = self._squash(export, cred)

            try:
                return self._apply(op, request, cred).to_bytes()
            except FsError as exc:
                self.metrics.counter(
                    "nfs.access_errors_total", self._labels
                ).inc()
                return NfsReply(
                    ok=False, data=b"", names=[], text=str(exc)
                ).to_bytes()

    @staticmethod
    def _squash(export: ExportSpec, cred: NfsCredential) -> NfsCredential:
        if export.squash == SquashMode.ALL:
            return NfsCredential.nobody()
        if export.squash == SquashMode.ROOT and cred.is_root:
            return NfsCredential.nobody()
        return cred

    def _apply(self, op: NfsOp, request: NfsRequest, cred: NfsCredential) -> NfsReply:
        fs = self.fs
        if op == NfsOp.GETATTR:
            uid, gid, mode, size = fs.getattr(request.path, cred)
            text = f"{uid}:{gid}:{mode:o}:{size}"
            return NfsReply(ok=True, data=b"", names=[], text=text)
        if op == NfsOp.READ:
            return NfsReply(
                ok=True, data=fs.read(request.path, cred), names=[], text=""
            )
        if op == NfsOp.WRITE:
            n = fs.write(request.path, request.data, cred)
            return NfsReply(ok=True, data=b"", names=[], text=str(n))
        if op == NfsOp.CREATE:
            fs.create(request.path, cred, mode=request.mode or 0o644)
            return NfsReply(ok=True, data=b"", names=[], text="created")
        if op == NfsOp.MKDIR:
            fs.mkdir(request.path, cred, mode=request.mode or 0o755)
            return NfsReply(ok=True, data=b"", names=[], text="created")
        if op == NfsOp.REMOVE:
            fs.remove(request.path, cred)
            return NfsReply(ok=True, data=b"", names=[], text="removed")
        if op == NfsOp.READDIR:
            names = fs.listdir(request.path, cred)
            return NfsReply(ok=True, data=b"", names=names, text="")
        if op == NfsOp.CHMOD:
            fs.chmod(request.path, request.mode, cred)
            return NfsReply(ok=True, data=b"", names=[], text="changed")
        if op == NfsOp.RENAME:
            fs.rename(request.path, request.data.decode("utf-8"), cred)
            return NfsReply(ok=True, data=b"", names=[], text="renamed")
        raise FsError(f"unsupported op {op}")  # pragma: no cover
