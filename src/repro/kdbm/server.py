"""The KDBM server (paper Section 5.1, Figure 11).

*"The KDBM server accepts requests to add principals to the database or
change the passwords for existing principals. ... When the KDBM server
receives a request, it authorizes it by comparing the authenticated
principal name of the requester of the change to the principal name of
the target of the request.  If they are the same, the request is
permitted.  If they are not the same, the KDBM server consults an access
control list. ... All requests to the KDBM program, whether permitted or
denied, are logged."*

The server refuses to start on a host holding a read-only database copy:
"the KDBM server may only run on the master Kerberos machine"
(Figure 11), which is what makes administration unavailable — while
authentication continues — when the master is down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.applib import AuthenticatedService
from repro.core.errors import ErrorCode, KerberosError
from repro.core.replay import CLOCK_SKEW
from repro.core.safe_priv import PrivMessage, krb_mk_priv, krb_rd_priv
from repro.database.acl import AccessControlList
from repro.database.db import (
    KerberosDatabase,
    NoSuchPrincipal,
    PrincipalExists,
    ReadOnlyDatabase,
)
from repro.encode import DecodeError
from repro.kdbm.messages import (
    AdminOperation,
    AdminReplyBody,
    AdminRequestBody,
    KdbmRequest,
)
from repro.netsim.ports import KDBM_PORT
from repro.principal import Principal, kdbm_principal


@dataclass
class KdbmLogEntry:
    """One line of the KDBM audit log."""

    time: float
    requester: str
    operation: str
    target: str
    permitted: bool
    detail: str


class KdbmServer(AuthenticatedService):
    """Read-write database interface, master machine only."""

    def __init__(
        self,
        database: KerberosDatabase,
        acl: AccessControlList,
        skew: float = CLOCK_SKEW,
        port: int = KDBM_PORT,
    ) -> None:
        # The service key is the database's own row for the principal.
        super().__init__(kdbm_principal(database.realm), database, skew)
        if database.readonly:
            raise ReadOnlyDatabase(
                "the KDBM server may only run on the master Kerberos "
                "machine (Section 5); this database copy is read-only"
            )
        self.db = database
        self.acl = acl
        self.port = port
        # Section 5.1: "All requests ... whether permitted or denied,
        # are logged" — the realm audit plane gets the denials too.
        self.log: List[KdbmLogEntry] = []

    def ports(self):
        return {self.port: self._handle}

    # -- request handling -------------------------------------------------

    def _handle(self, datagram) -> bytes:
        with self.tracer.span_under(
            datagram.trace, "kdbm.request", host=self.host.name
        ):
            return self._handle_inner(datagram)

    def _handle_inner(self, datagram) -> bytes:
        now = self.host.clock.now()
        # Nothing authenticated to reply to, and no session key to seal
        # a reply in: both refusals are logged and answered with silence.
        try:
            request = KdbmRequest.from_bytes(datagram.payload)
            context = self.authenticate(request.ap_request, datagram)
        except DecodeError:
            self._log(now, "<unparsed>", "?", "?", False, "undecodable request")
            return b""
        except KerberosError as err:
            self._log(now, "<unauthenticated>", "?", "?", False, str(err))
            return b""

        try:
            body = AdminRequestBody.from_bytes(
                krb_rd_priv(
                    PrivMessage.from_bytes(request.private_body),
                    context.session_key,
                    expected_sender=datagram.src,
                    now=now,
                    skew=self.skew,
                )
            )
            reply = self._dispatch(
                context.client, body, now, trace=datagram.trace
            )
        except KerberosError as err:
            self._log(now, str(context.client), "?", "?", False, str(err))
            reply = AdminReplyBody(ok=False, code=int(err.code), text=err.message)

        sealed = krb_mk_priv(
            reply.to_bytes(), context.session_key, self.host.address, now
        )
        return sealed.to_bytes()

    # -- authorization (Section 5.1) -----------------------------------------

    def _authorize(
        self, requester: Principal, target: Principal, self_service_ok: bool
    ) -> bool:
        """Self-service or ACL, exactly the paper's rule."""
        if self_service_ok and requester.same_entity(
            target.with_realm(target.realm or self.db.realm)
        ):
            return True
        return self.acl.check(requester)

    def _dispatch(
        self,
        requester: Principal,
        body: AdminRequestBody,
        now: float,
        trace=None,
    ) -> AdminReplyBody:
        op = AdminOperation(body.operation)
        target = body.target
        op_name = op.name

        if op == AdminOperation.CHANGE_PASSWORD:
            permitted = self._authorize(requester, target, self_service_ok=True)
        elif op == AdminOperation.ADD_PRINCIPAL:
            # Adding a principal is never self-service.
            permitted = self.acl.check(requester)
        elif op == AdminOperation.GET_ENTRY:
            permitted = self._authorize(requester, target, self_service_ok=True)
        else:  # pragma: no cover - enum covers all
            permitted = False

        if not permitted:
            self._log(now, str(requester), op_name, str(target), False, "denied")
            self.audit.emit(
                "acl_denial",
                host=self.host.name,
                principal=str(requester),
                trace=trace,
                detail=f"{op_name} {target} denied",
            )
            return AdminReplyBody(
                ok=False,
                code=int(ErrorCode.KDBM_DENIED),
                text=f"{requester} may not {op_name} for {target}",
            )

        try:
            text = self._apply(op, requester, body, now)
        except (NoSuchPrincipal, PrincipalExists, ValueError) as exc:
            self._log(now, str(requester), op_name, str(target), False, str(exc))
            return AdminReplyBody(
                ok=False, code=int(ErrorCode.KDBM_ERROR), text=str(exc)
            )

        self._log(now, str(requester), op_name, str(target), True, text)
        return AdminReplyBody(ok=True, code=0, text=text)

    def _apply(
        self,
        op: AdminOperation,
        requester: Principal,
        body: AdminRequestBody,
        now: float,
    ) -> str:
        target = body.target.with_realm(self.db.realm)
        if op == AdminOperation.CHANGE_PASSWORD:
            record = self.db.change_key(
                target,
                new_password=body.new_password,
                now=now,
                mod_by=str(requester),
            )
            return f"password changed (key version {record.key_version})"
        if op == AdminOperation.ADD_PRINCIPAL:
            self.db.add_principal(
                target,
                password=body.new_password,
                now=now,
                max_life=body.max_life or 8 * 3600.0,
                mod_by=str(requester),
            )
            return f"{target} added"
        if op == AdminOperation.GET_ENTRY:
            record = self.db.get_record(target)
            return (
                f"{target} kvno={record.key_version} "
                f"expires={record.expiration:.0f} max_life={record.max_life:.0f}"
            )
        raise ValueError(f"unknown operation {op}")  # pragma: no cover

    def _log(
        self,
        now: float,
        requester: str,
        operation: str,
        target: str,
        permitted: bool,
        detail: str,
    ) -> None:
        self.log.append(
            KdbmLogEntry(
                time=now,
                requester=requester,
                operation=operation,
                target=target,
                permitted=permitted,
                detail=detail,
            )
        )
