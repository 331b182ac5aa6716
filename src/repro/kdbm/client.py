"""Client side of the administration protocol (paper Figure 12).

The kpasswd and kadmin programs both work this way:

1. obtain a ticket for the KDBM service *via the authentication
   service* — which requires typing a password: the old password for
   kpasswd, the admin-instance password for kadmin ("An administrator is
   required to enter the password for their admin instance name when
   they invoke the kadmin program");
2. send the operation, sealed as a private message, with the ticket;
3. read the (private) reply.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.applib import krb_mk_req
from repro.core.client import KerberosClient
from repro.core.credcache import Credential
from repro.core.errors import ErrorCode, KerberosError, error_for_code
from repro.core.retry import RetryCounts, RetryExhausted, RetryPolicy, run_with_failover
from repro.core.safe_priv import PrivMessage, krb_mk_priv, krb_rd_priv
from repro.kdbm.messages import (
    AdminOperation,
    AdminReplyBody,
    AdminRequestBody,
    KdbmRequest,
)
from repro.netsim import IPAddress, Unreachable
from repro.netsim.ports import KDBM_PORT
from repro.principal import Principal, kdbm_principal


class KdbmTimeout(KerberosError, Unreachable):
    """The KDBM did not answer within the retry policy.

    Distinct from the protocol-level "dropped the request" empty reply
    (which means the server *received* us and refused to authenticate):
    a timeout means the master is unreachable — admin writes cannot fail
    over to slaves, whose database copies are read-only (Figure 11), so
    the only honest outcome is this typed error with the attempt count.
    Also an :class:`~repro.netsim.network.Unreachable`, because that is
    what it is at the transport level (callers that handled the old
    generic failure keep working).
    """

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(ErrorCode.KDBM_ERROR, message)
        self.attempts = attempts


class KdbmClient:
    """Speaks the admin protocol on behalf of kpasswd/kadmin."""

    def __init__(
        self,
        kerberos_client: KerberosClient,
        master_address,
        port: int = KDBM_PORT,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.krb = kerberos_client
        self.master_address = IPAddress(master_address)
        self.port = port
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self._retry_rng = random.Random(f"kdbm:{kerberos_client.host.name}")
        self._retry_counts = RetryCounts(kerberos_client.metrics)

    def _kdbm_credential(
        self, principal: Principal, password: str
    ) -> Credential:
        """Get a KDBM ticket the only way possible: through the AS, with a
        password (Section 5.1's deliberate design)."""
        return self.krb.as_exchange(
            principal, password, kdbm_principal(self.krb.realm)
        )

    def _roundtrip(
        self, cred: Credential, client: Principal, body: AdminRequestBody
    ) -> AdminReplyBody:
        def attempt(address) -> bytes:
            # Fresh authenticator and private seal per attempt: if only
            # the reply was lost, the KDBM has already recorded the old
            # timestamp in its replay cache.
            now = self.krb._auth_now()
            ap_request = krb_mk_req(
                ticket_blob=cred.ticket,
                session_key=cred.session_key,
                client=client,
                client_address=self.krb.host.address,
                now=now,
                kvno=cred.kvno,
            )
            private = krb_mk_priv(
                body.to_bytes(), cred.session_key, self.krb.host.address, now
            )
            request = KdbmRequest(
                ap_request=ap_request.to_bytes(),
                private_body=private.to_bytes(),
            )
            return self.krb.host.rpc(address, self.port, request.to_bytes())

        try:
            # One endpoint only: the KDBM is master-only (Section 5) —
            # no slave can take the write, so "failover" here is just
            # retransmission against the same machine.
            raw, _, _ = run_with_failover(
                self.retry_policy,
                self.krb.host.network.runtime,
                [self.master_address],
                attempt,
                rng=self._retry_rng,
                counts=self._retry_counts,
                op="kdbm",
                retry_on=(Unreachable,),
            )
        except RetryExhausted as exc:
            raise KdbmTimeout(
                f"KDBM at {self.master_address} did not answer after "
                f"{exc.attempts} attempt(s) — master down or partitioned; "
                "admin writes cannot fail over to read-only slaves",
                attempts=exc.attempts,
            ) from exc
        if not raw:
            raise error_for_code(
                ErrorCode.KDBM_ERROR,
                "KDBM dropped the request (authentication failed?)",
            )
        reply_data = krb_rd_priv(
            PrivMessage.from_bytes(raw),
            cred.session_key,
            expected_sender=self.master_address,
            now=self.krb.host.clock.now(),
        )
        return AdminReplyBody.from_bytes(reply_data)

    def _check(self, reply: AdminReplyBody) -> str:
        if not reply.ok:
            # Typed: a KDBM refusal raises KdbmError (or a more specific
            # class), via the one code↔exception mapping.
            raise error_for_code(reply.code, reply.text)
        return reply.text

    # -- the operations --------------------------------------------------------

    def change_password(
        self,
        principal: Principal,
        old_password: str,
        new_password: str,
    ) -> str:
        """kpasswd: users "are required to enter their old password when
        they invoke the program"."""
        cred = self._kdbm_credential(principal, old_password)
        body = AdminRequestBody(
            operation=int(AdminOperation.CHANGE_PASSWORD),
            target=principal,
            new_password=new_password,
            max_life=0.0,
        )
        return self._check(self._roundtrip(cred, principal, body))

    def admin_change_password(
        self,
        admin: Principal,
        admin_password: str,
        target: Principal,
        new_password: str,
    ) -> str:
        """kadmin cpw: an administrator resets someone else's password."""
        cred = self._kdbm_credential(admin, admin_password)
        body = AdminRequestBody(
            operation=int(AdminOperation.CHANGE_PASSWORD),
            target=target,
            new_password=new_password,
            max_life=0.0,
        )
        return self._check(self._roundtrip(cred, admin, body))

    def add_principal(
        self,
        admin: Principal,
        admin_password: str,
        target: Principal,
        initial_password: str,
        max_life: float = 0.0,
    ) -> str:
        """kadmin ank: register a new principal."""
        cred = self._kdbm_credential(admin, admin_password)
        body = AdminRequestBody(
            operation=int(AdminOperation.ADD_PRINCIPAL),
            target=target,
            new_password=initial_password,
            max_life=max_life,
        )
        return self._check(self._roundtrip(cred, admin, body))

    def get_entry(
        self, principal: Principal, password: str, target: Optional[Principal] = None
    ) -> str:
        """kadmin get: inspect a database entry (no key material returned)."""
        cred = self._kdbm_credential(principal, password)
        body = AdminRequestBody(
            operation=int(AdminOperation.GET_ENTRY),
            target=target if target is not None else principal,
            new_password="",
            max_life=0.0,
        )
        return self._check(self._roundtrip(cred, principal, body))
