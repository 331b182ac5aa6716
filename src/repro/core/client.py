"""The workstation-side Kerberos client library.

Implements the client's half of every protocol in Figure 9:

* the initial-ticket (AS) exchange of Figure 5 — :meth:`KerberosClient.kinit`;
* the ticket-granting (TGS) exchange of Figure 8 —
  :meth:`KerberosClient.get_credential`;
* building authentication requests for end servers (Figure 6) and
  verifying mutual-authentication replies (Figure 7) —
  :meth:`KerberosClient.mk_req` / :meth:`KerberosClient.rd_rep`;
* cross-realm acquisition (Section 7.2): a local TGT buys a remote TGT,
  which buys tickets from the remote realm's TGS.

Availability (Figure 10): the client knows *several* KDC addresses —
the master and any slaves — and fails over between them, which is how
"if the master machine is down, authentication can still be achieved on
one of the slave machines".

Discovery: where those addresses come from is one protocol, the
:class:`~repro.core.locator.KdcLocator`.  The client holds a locator
per realm and asks it, per request, for a failover-ordered list — a
static list, or a shard ring routing by principal (read from the realm
or from its Hesiod records).  A realm of several shards may answer with
a :class:`~repro.core.errors.WrongShard` referral; the client folds it
into the locator and re-sends (bounded hops), counting follows in
``kdc.referral_follows_total``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.crypto import DesKey, string_to_key
from repro.core.applib import krb_mk_req, krb_rd_rep
from repro.core.credcache import Credential, CredentialCache
from repro.core.errors import (
    ErrorCode,
    KdcOverloaded,
    KerberosError,
    PreauthRequired,
    WrongShard,
    error_for_code,
)
from repro.core.locator import KdcLocator
from repro.core.messages import (
    ApReply,
    ApRequest,
    AsRequest,
    MessageType,
    PreauthAsRequest,
    TgsRequest,
    build_preauth,
    decode_message,
    encode_message,
    expect_reply,
)
from repro.core.authenticator import build_authenticator
from repro.core.retry import RetryCounts, RetryExhausted, RetryPolicy, run_with_failover
from repro.database.schema import DEFAULT_MAX_LIFE
from repro.netsim import Host, IPAddress, NoSuchService, Unreachable
from repro.netsim.ports import KERBEROS_PORT
from repro.obs import LATENCY_BUCKETS
from repro.principal import Principal, tgs_principal

#: Referral follows per exchange before giving up.  One hop corrects a
#: stale ring snapshot; a second absorbs a ring that changed *again*
#: mid-exchange; beyond that something is looping.
MAX_REFERRAL_HOPS = 3

#: Without an explicit :class:`RetryPolicy`, a request makes this many
#: immediate passes over the located KDC list before giving up.
DEFAULT_PASSES = 3


class KerberosClient:
    """A user's Kerberos state on one workstation."""

    def __init__(
        self,
        host: Host,
        realm: str,
        locator: KdcLocator,
        *,
        port: int = KERBEROS_PORT,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if not isinstance(locator, KdcLocator):
            raise TypeError(
                f"locator must be a KdcLocator, not {type(locator).__name__}; "
                "wrap an address list in StaticLocator"
            )
        #: None means :data:`DEFAULT_PASSES` immediate passes over
        #: whatever list the locator returns, sized per request.
        self.retry_policy = retry_policy
        # Deterministic backoff jitter: seeded from the workstation name
        # (str seeds hash stably), never from ambient entropy.
        self._retry_rng = random.Random(f"retry:{host.name}")
        self.host = host
        self.realm = realm
        self.port = port
        # Observability rides on the network the workstation is plugged
        # into; exchange spans nest under whatever span the caller has
        # open, threading one request ID through AS→TGS→AP.
        self.metrics = host.network.metrics
        self.tracer = host.network.tracer
        #: What every exchange counts, by exchange type or realm.
        self._exchange_seconds = self.metrics.family(
            "histogram", "client.exchange_seconds", ("type",), buckets=LATENCY_BUCKETS
        )
        self._failovers = self.metrics.family("counter", "kdc.failovers_total", ("realm",))
        self._referral_follows = self.metrics.family(
            "counter", "kdc.referral_follows_total", ("realm",)
        )
        self._retry_counts = RetryCounts(self.metrics)
        self.cache = CredentialCache(metrics=self.metrics)
        # realm -> the locator that answers "which KDCs, for this
        # request?" — the local realm's locator routes every AS/TGS send.
        self._locators: Dict[str, KdcLocator] = {realm: locator}
        self._last_auth_time = float("-inf")

    def _auth_now(self) -> float:
        """The workstation clock as seen by authenticator timestamps.

        A real machine's clock has sub-second resolution, so no two
        authenticators it builds ever share a timestamp; the simulated
        clock can stand still, so sub-second stalls are nudged forward a
        microsecond — otherwise back-to-back requests in the same
        simulated instant would trip the server's replay cache.  A clock
        stepped *backwards* by more than a second (an operator fixing a
        skewed workstation) is honored as-is, exactly as a real machine
        would emit older timestamps again.
        """
        now = self.host.clock.now()
        if now <= self._last_auth_time and self._last_auth_time - now < 1.0:
            now = self._last_auth_time + 1e-6
        self._last_auth_time = now
        return now

    @property
    def principal(self) -> Optional[Principal]:
        return self.cache.owner

    def set_locator(self, realm: str, locator: KdcLocator) -> None:
        """Install the discovery mechanism for ``realm`` — static list
        or shard ring."""
        self._locators[realm] = locator

    def locator_for(self, realm: str) -> Optional[KdcLocator]:
        return self._locators.get(realm)

    def kdcs(self, realm: str) -> List[IPAddress]:
        """The client's current KDC list for ``realm`` (copy; for a
        ring locator, the lowest shard's list)."""
        locator = self._locators.get(realm)
        return list(locator.locate(None)) if locator is not None else []

    # -- KDC transport with failover (Figure 10) -----------------------------

    def _ask_kdc(
        self,
        realm: str,
        build_payload,
        op: str = "kdc",
        routing_key: Optional[str] = None,
    ) -> bytes:
        """Send a request to the realm's KDCs: locate, fail over, and
        follow shard referrals.

        ``routing_key`` is the principal database key the request is
        *about* (the AS exchange's client; the TGS exchange's
        authenticated owner) — a sharded locator hashes it onto the
        ring to pick the owning shard's replica list; other locators
        ignore it.

        A :class:`WrongShard` error reply is a *referral*, not a
        failure: the locator folds it in (adopting the authoritative
        shard's addresses, refreshing the ring if the referrer's epoch
        is ahead) and the request is re-sent, up to
        :data:`MAX_REFERRAL_HOPS` times.  Referrals do not trip the
        failover counter — the KDC answered; it just is not the owner.
        """
        locator = self._locators.get(realm)
        if locator is None:
            raise KerberosError(
                ErrorCode.KDC_NO_CROSS_REALM,
                f"no known KDC for realm {realm}",
            )
        addresses = locator.locate(routing_key)
        hops = 0
        while True:
            raw = self._failover_exchange(realm, addresses, build_payload, op)
            referral = self._transport_error(raw)
            if not isinstance(referral, WrongShard):
                return raw
            hops += 1
            self._referral_follows[realm].inc()
            locator.apply_referral(referral)
            if hops >= MAX_REFERRAL_HOPS:
                raise referral
            # Prefer the referral's explicit address list — it names
            # the authoritative shard even if our snapshot is stale.
            referred = [IPAddress(a) for a in referral.kdcs]
            addresses = referred or locator.locate(routing_key)

    @staticmethod
    def _transport_error(raw: bytes) -> Optional[KerberosError]:
        """The typed error of a reply the *transport* acts on — a
        :class:`KdcOverloaded` shed (fail over) or a :class:`WrongShard`
        referral (follow) — else None.  Only an ``ERROR`` envelope is
        decoded here; any other reply is told apart by its type byte and
        decoded once, by ``expect_reply``."""
        if not raw or raw[0] != MessageType.ERROR:
            return None
        try:
            _, message = decode_message(raw)
        except KerberosError:
            return None  # not even an envelope; let expect_reply complain
        if message.code in (
            ErrorCode.KDC_OVERLOADED, ErrorCode.KDC_WRONG_SHARD
        ):
            return error_for_code(message.code, message.text)
        return None

    def _failover_exchange(
        self, realm: str, addresses: List[IPAddress], build_payload, op: str
    ) -> bytes:
        """One pass of UDP-style retransmission and failover over an
        address list (Figure 10).

        ``build_payload`` is a zero-argument callable producing the
        request bytes, called fresh for every attempt: a retransmitted
        TGS request must carry a *new* authenticator, because if only
        the reply was lost the KDC has already recorded the old
        timestamp in its replay cache and would reject a verbatim
        resend.

        The endpoint list is master-first; when the answer finally comes
        from a different KDC than the primary, that is a failover and is
        counted in ``kdc.failovers_total``.
        """
        if not addresses:
            raise KerberosError(
                ErrorCode.KDC_NO_CROSS_REALM,
                f"no known KDC for realm {realm}",
            )
        policy = self.retry_policy
        if policy is None:
            policy = RetryPolicy(max_attempts=DEFAULT_PASSES * len(addresses))

        def attempt(address) -> bytes:
            raw = self.host.rpc(address, self.port, build_payload())
            # An overload shed is *typed as* Unreachable (KdcOverloaded),
            # so raising it here makes failover try the next KDC exactly
            # as it would for a lost datagram — no special case.
            error = self._transport_error(raw)
            if isinstance(error, KdcOverloaded):
                raise error
            return raw

        try:
            raw, answered_by, _ = run_with_failover(
                policy,
                self.host.network.runtime,
                addresses,
                attempt,
                rng=self._retry_rng,
                counts=self._retry_counts,
                op=op,
                # NoSuchService is port-unreachable: the host answers
                # but no KDC listens (e.g. a detached service during
                # maintenance) — as failover-worthy as a dead host.
                retry_on=(Unreachable, NoSuchService),
            )
        except RetryExhausted as exc:
            raise Unreachable(
                f"no KDC for {realm} reachable ({exc.attempts} attempts): "
                f"{exc.last_error}"
            ) from exc
        if answered_by != addresses[0]:
            self._failovers[realm].inc()
        return raw

    # -- Figure 5: the initial ticket --------------------------------------------

    def kinit(
        self,
        username: str,
        password: str,
        life: Optional[float] = None,
        instance: str = "",
    ) -> Credential:
        """Log in: obtain a ticket-granting ticket with the user's password.

        The request carries only "the user's name and the name of ...
        the ticket-granting service"; the password never leaves the
        workstation.  It is used locally to decrypt the reply, then both
        it and the derived key are dropped (Section 4.2).
        """
        client = Principal(username, instance, self.realm)
        cred = self.as_exchange(
            client, password, tgs_principal(self.realm), life=life
        )
        self.cache.owner = client
        return cred

    def as_exchange(
        self,
        client: Principal,
        password: str,
        service: Principal,
        life: Optional[float] = None,
    ) -> Credential:
        """The raw AS exchange, for the TGS (kinit) or for the KDBM
        (kpasswd/kadmin, which 'must use the authentication service
        itself', Section 5.1).  The resulting credential is cached."""
        with self.tracer.span(
            "client.as_exchange",
            client=str(client),
            service=str(service),
            host=self.host.name,
        ) as span:
            cred = self._as_exchange(client, password, service, life)
        self._exchange_seconds["as"].observe(span.duration)
        return cred

    def _as_exchange(
        self,
        client: Principal,
        password: str,
        service: Principal,
        life: Optional[float],
    ) -> Credential:
        now = self.host.clock.now()
        request = AsRequest(
            client=client,
            service=service,
            requested_life=life if life is not None else DEFAULT_MAX_LIFE,
            timestamp=now,
        )
        wire = encode_message(MessageType.AS_REQ, request)
        raw = self._ask_kdc(
            self.realm, lambda: wire, op="as", routing_key=client.db_key()
        )
        try:
            reply = expect_reply(raw, MessageType.AS_REP)
        except PreauthRequired:
            # Preauthentication negotiation (extension): retry with the
            # request timestamp sealed in the password-derived key.
            preauth_request = PreauthAsRequest(
                client=request.client,
                service=request.service,
                requested_life=request.requested_life,
                timestamp=request.timestamp,
                preauth=build_preauth(string_to_key(password), now),
            )
            preauth_wire = encode_message(
                MessageType.PREAUTH_AS_REQ, preauth_request
            )
            raw = self._ask_kdc(
                self.realm,
                lambda: preauth_wire,
                op="as",
                routing_key=client.db_key(),
            )
            reply = expect_reply(raw, MessageType.AS_REP)

        # "The password is converted to a DES key and used to decrypt the
        # response."  A wrong password surfaces here as INTK_BADPW —
        # never as a message to the server.
        user_key = string_to_key(password)
        body = reply.open(user_key)
        del user_key, password  # "the user's password and DES key are erased"

        if not body.server.same_entity(
            service.with_realm(service.realm or self.realm)
        ):
            raise KerberosError(
                ErrorCode.INTK_PROT,
                f"reply is for {body.server}, requested {service}",
            )
        if body.request_timestamp != now:
            raise KerberosError(
                ErrorCode.INTK_PROT, "reply does not echo our request time"
            )
        cred = Credential(
            service=body.server,
            ticket=body.ticket,
            session_key=DesKey(body.session_key, allow_weak=True),
            issue_time=body.issue_time,
            life=body.life,
            kvno=body.kvno,
        )
        self.cache.store(cred)
        return cred

    # -- Figure 8: server tickets from the TGS ---------------------------------------

    def get_credential(
        self, service: Principal, life: Optional[float] = None
    ) -> Credential:
        """Return a usable credential for ``service``, running TGS
        exchanges as needed (and going cross-realm when the service's
        realm is not ours, Section 7.2).  Cached tickets are reused —
        "once the ticket has been issued, it may be used multiple times"
        — until they expire."""
        target_realm = service.realm or self.realm
        now = self.host.clock.now()

        cached = self.cache.get(service, now=now)
        if cached is not None:
            return cached

        if target_realm == self.realm:
            tgt = self._require_tgt(now)
            return self._tgs_exchange(self.realm, tgt, service, life)

        # Cross-realm: first a TGT for the remote realm from our own TGS
        # ("a user ... can obtain credentials issued by another realm, on
        # the strength of the authentication provided by the local realm").
        remote_tgt = self.cache.remote_tgt(self.realm, target_realm, now=now)
        if remote_tgt is None:
            local_tgt = self._require_tgt(now)
            remote_tgt = self._tgs_exchange(
                self.realm,
                local_tgt,
                tgs_principal(self.realm, target_realm),
                life,
            )
        # Then the remote TGS issues the service ticket; it will
        # recognize the TGT's realm and use the inter-realm key.
        return self._tgs_exchange(target_realm, remote_tgt, service, life)

    def _require_tgt(self, now: float) -> Credential:
        tgt = self.cache.tgt(self.realm, now=now)
        if tgt is None:
            raise KerberosError(
                ErrorCode.INTK_PROT,
                "no valid ticket-granting ticket: run kinit "
                "(the TGT may have expired, Section 6.1)",
            )
        return tgt

    def _tgs_exchange(
        self,
        kdc_realm: str,
        tgt: Credential,
        service: Principal,
        life: Optional[float],
    ) -> Credential:
        """One Figure-8 exchange against the TGS of ``kdc_realm``."""
        with self.tracer.span(
            "client.tgs_exchange",
            service=str(service),
            kdc_realm=kdc_realm,
            host=self.host.name,
        ) as span:
            cred = self._tgs_exchange_inner(kdc_realm, tgt, service, life)
        self._exchange_seconds["tgs"].observe(span.duration)
        return cred

    def _tgs_exchange_inner(
        self,
        kdc_realm: str,
        tgt: Credential,
        service: Principal,
        life: Optional[float],
    ) -> Credential:
        def build_request() -> bytes:
            # Fresh timestamp and authenticator per attempt (see _ask_kdc).
            now = self._auth_now()
            authenticator = build_authenticator(
                client=self.cache.owner,
                address=self.host.address,
                now=now,
                session_key=tgt.session_key,
            )
            # The TGT was issued by our own realm even when presented to a
            # remote TGS — that cleartext field is how the remote side
            # knows to use the inter-realm key.
            request = TgsRequest(
                service=service,
                requested_life=life if life is not None else DEFAULT_MAX_LIFE,
                timestamp=now,
                tgt_realm=self.realm,
                tgt=tgt.ticket,
                authenticator=authenticator,
            )
            return encode_message(MessageType.TGS_REQ, request)

        # TGS requests are servable by any shard (krbtgt and service
        # records replicate realm-wide), so the routing key is pure load
        # spreading: the authenticated owner's name.
        owner = self.cache.owner
        raw = self._ask_kdc(
            kdc_realm,
            build_request,
            op="tgs",
            routing_key=owner.db_key() if owner is not None else None,
        )
        reply = expect_reply(raw, MessageType.TGS_REP)
        # "the reply is encrypted in the session key that was part of the
        # ticket-granting ticket" — the password plays no part.
        body = reply.open(tgt.session_key)
        cred = Credential(
            service=service,
            ticket=body.ticket,
            session_key=DesKey(body.session_key, allow_weak=True),
            issue_time=body.issue_time,
            life=body.life,
            kvno=body.kvno,
        )
        self.cache.store(cred)
        return cred

    # -- Figures 6 and 7: talking to end servers -----------------------------------------

    def mk_req(
        self,
        service: Principal,
        mutual: bool = False,
        checksum: int = 0,
    ) -> Tuple[ApRequest, Credential, float]:
        """Build the authentication request for a service, fetching a
        ticket first if needed.  Returns (request, credential, the
        authenticator timestamp — needed to verify a mutual reply)."""
        cred = self.get_credential(service)
        with self.tracer.span(
            "client.ap_request", service=str(service), host=self.host.name
        ):
            now = self._auth_now()
            request = krb_mk_req(
                ticket_blob=cred.ticket,
                session_key=cred.session_key,
                client=self.cache.owner,
                client_address=self.host.address,
                now=now,
                mutual=mutual,
                kvno=cred.kvno,
                checksum=checksum,
            )
        return request, cred, now

    def rd_rep(
        self, reply: ApReply, sent_timestamp: float, cred: Credential
    ) -> None:
        """Verify a Figure-7 mutual-authentication reply."""
        krb_rd_rep(reply, sent_timestamp, cred.session_key)

    # -- Section 6.1 user operations ----------------------------------------------------

    def klist(self) -> List[Credential]:
        return self.cache.list()

    def kdestroy(self) -> int:
        return self.cache.destroy()
