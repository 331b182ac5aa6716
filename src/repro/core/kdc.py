"""The authentication server (paper Sections 2.2, 4.2, 4.4; Figures 5, 8, 10).

One :class:`KerberosServer` implements both halves of the KDC:

* the **authentication service** (Figure 5) — handles initial-ticket
  requests: "The authentication server checks that it knows about the
  client.  If so, it generates a random session key ... It then creates
  a ticket for the ticket-granting server ... This is all encrypted in a
  key known only to the ticket-granting server and the authentication
  server"; the reply "is encrypted in the client's private key";
* the **ticket-granting service** (Figure 8) — handles requests carrying
  a TGT and authenticator: "The ticket-granting server then checks the
  authenticator and ticket-granting ticket as described above.  If
  valid, the ticket-granting server generates a new random session key
  ... The lifetime of the new ticket is the minimum of the remaining
  life for the ticket-granting ticket and the default for the service";
  the reply "is encrypted in the session key that was part of the
  ticket-granting ticket".

The server "performs read-only operations on the Kerberos database", so
the same class runs unchanged against a slave's read-only replica
(Figure 10).  Cross-realm requests (Section 7.2) are recognized by the
request's cleartext TGT realm and unsealed with the previously exchanged
inter-realm key.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.crypto import DesKey, KeyGenerator, keycache
from repro.crypto.modes import interleaved_blocks
from repro.core.applib import (
    AuthContext,
    AuthenticatedService,
    check_authenticator,
    check_ticket,
)
from repro.core.authenticator import Authenticator
from repro.core.errors import ErrorCode, KerberosError, error_for_code
from repro.core.messages import (
    ErrorReply,
    KdcReply,
    KdcReplyBody,
    MessageType,
    PreauthAsRequest,
    decode_message,
    encode_message,
    verify_preauth,
)
from repro.core.replay import CLOCK_SKEW
from repro.core.ticket import Ticket, seal_tickets_cached, unseal_structs
from repro.database.db import KerberosDatabase, NoSuchPrincipal
from repro.database.masterkey import MasterKeyError
from repro.database.schema import PrincipalRecord
from repro.encode import BatchReader, BatchWriter
from repro.netsim import DeferredReply, IPAddress
from repro.netsim.ports import KERBEROS_PORT
from repro.obs import LIFETIME_BUCKETS
from repro.principal import Principal, tgs_principal
from repro.runtime import WorkQueue, WorkQueueConfig

#: db name under which the key for *accepting* TGTs issued by a remote
#: realm is stored.  The issuing side stores the same key under the
#: remote TGS principal (krbtgt.<remote>); see repro.core.crossrealm.
XREALM_NAME = "xrealm"

#: Buckets for the kdc.batch_size histogram (requests per worker batch).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Opened TGTs a KDC keeps (LRU), keyed by (TGS key bytes, sealed TGT):
#: one per live login that comes back for service tickets.  A TGT is
#: "used to obtain tickets" for its whole life (Section 4.4), so it is
#: the one ciphertext the KDC meets again and again.
TGT_MEMO_SIZE = 512

#: Sealed-ticket skeletons a KDC keeps (LRU): one per (service key,
#: ticket length) it seals under — a few dozen at Athena scale.
SKELETON_CACHE_SIZE = 2048

#: Per request kind: its handler span's name and its success event's
#: detail, built once rather than once per request kept.
_SPAN_NAME = {kind: f"kdc.{kind}" for kind in ("as", "tgs", "other")}
_OK_DETAIL = {kind: f"kind={kind}" for kind in ("as", "tgs")}


class _KeyTouchMeter:
    """Key-schedule cache lookups since the last reading — the O(1)
    source of the per-request ``crypto_ops`` span attribute.  The tally
    is process-wide, but nothing else runs while the KDC's stages do, so
    a lap between two of its readings is this KDC's own count."""

    def __init__(self) -> None:
        self._mark = self._touches()

    @staticmethod
    def _touches() -> int:
        stats = keycache.stats()
        return stats["hit"] + stats["miss"]

    def lap(self) -> int:
        mark = self._touches()
        delta, self._mark = mark - self._mark, mark
        return delta


def _frameless(err: KerberosError) -> KerberosError:
    """``err`` as a value that pins no frame.  A refusal sits in the
    batch's ``errors`` list; its traceback — or that of an exception it
    was raised from — leads back to the frame holding that list, a cycle
    only the cyclic collector frees.  Messages and the chain stay."""
    link: Optional[BaseException] = err
    while link is not None:
        link.__traceback__ = None
        link = link.__cause__ or link.__context__
    return err


class _Prepared(NamedTuple):
    """Everything a successful exchange needs *before* any sealing — the
    output of stage 3, consumed by seal-all/encode-all."""

    mtype: MessageType           # AS_REP | TGS_REP
    ticket: Ticket               # client, issue time, life, session key
    service_key: DesKey          # seals the ticket
    reply_key: DesKey            # seals the reply body
    server_field: Principal      # body's server field
    kvno: int
    request_timestamp: float

    def body(self) -> KdcReplyBody:
        """The reply body with its last field, the ticket, still empty:
        the ticket is sealed inside it (:func:`seal_tickets_cached`)."""
        return KdcReplyBody(
            session_key=self.ticket.session_key,
            server=self.server_field,
            issue_time=self.ticket.timestamp,
            life=self.ticket.life,
            kvno=self.kvno,
            request_timestamp=self.request_timestamp,
            ticket=b"",
        )


class _BufferDatagram(NamedTuple):
    """A datagram-shaped view over one frame of a request buffer, for
    driving the pipeline without the network simulator."""

    payload: memoryview
    src: IPAddress
    trace: Optional[object] = None


class KerberosServer(AuthenticatedService):
    """An authentication server on a host's Kerberos port.

    Runs against the master database or any read-only slave copy —
    authentication "can run on both master and slave machines"
    (Figure 10).

    With a :class:`WorkQueueConfig` as ``queue`` the server runs a
    **concurrent service loop**: arrivals queue into a bounded
    :class:`WorkQueue` on the network runtime and are answered
    from worker batch completions (:class:`DeferredReply`); a full queue
    sheds the request with a :class:`~repro.core.errors.KdcOverloaded`
    error reply the client's failover path rides out to another KDC.
    Batches amortize database record lookups across their requests.
    Without ``queue`` a request is answered at arrival as a batch of
    one — zero service time, through the same staged pipeline
    (:meth:`_serve_batch`) every queued batch and request buffer rides.
    """

    def __init__(
        self,
        database: KerberosDatabase,
        keygen: KeyGenerator,
        skew: float = CLOCK_SKEW,
        port: int = KERBEROS_PORT,
        queue: Optional[WorkQueueConfig] = None,
        shard=None,
    ) -> None:
        # The ticket-granting service is the one this daemon accepts
        # tickets for; its key is a row of the database it serves.
        super().__init__(tgs_principal(database.realm), database, skew)
        self.db = database
        self.realm = database.realm
        self.keygen = keygen
        self.port = port
        #: :class:`~repro.realm.sharding.ShardMembership` of the realm
        #: shard this KDC serves; None for a KDC built outside any
        #: realm.  Checked only on the unknown-client path —
        #: a record present locally is always served, which is exactly
        #: the double-serve behaviour a range move relies on.
        self.shard = shard
        self.queue_config = queue
        self.workqueue: Optional[WorkQueue] = None

    def ports(self):
        return {self.port: self._handle}

    def on_attach(self) -> None:
        super().on_attach()
        host = self.host
        # This server's series carry a `server` label so master and
        # slave load (Figure 10 / Section 9) can be told apart.
        self._labels = {"server": host.name}
        # Fixed-label series resolved once, not per request.
        self._requests_total = {
            kind: self.metrics.counter(
                "kdc.requests_total", {**self._labels, "kind": kind}
            )
            for kind in ("as", "tgs")
        }
        self._ok_total = {
            kind: self.metrics.counter(
                "kdc.outcomes_total",
                {**self._labels, "kind": kind, "code": "OK"},
            )
            for kind in ("as", "tgs")
        }
        self._batch_size = self.metrics.histogram(
            "kdc.batch_size", BATCH_SIZE_BUCKETS, self._labels
        )
        self._lookups_saved = self.metrics.counter(
            "kdc.batch_lookups_saved_total", self._labels
        )
        self._skeleton_hits = self.metrics.counter(
            "kdc.skeleton_hits_total", self._labels
        )
        self._tgt_memo_total = {
            result: self.metrics.counter(
                "kdc.tgt_memo_total", {**self._labels, "result": result}
            )
            for result in ("hit", "miss")
        }
        # Opened TGTs (see _unseal_all): content-addressed, so a rotated
        # TGS key or a changed blob simply misses; one per incarnation.
        self._tgt_memo = keycache._LruCache(TGT_MEMO_SIZE)
        # Sealed-ticket skeletons (see seal_tickets_cached): the same.
        self._skeletons = keycache._LruCache(SKELETON_CACHE_SIZE)
        #: ``kdc.ticket_life_seconds`` by kind; see :meth:`_life_series`.
        self._ticket_life: Dict[str, object] = {}
        if self.shard is not None:
            self.metrics.counter("kdc.referrals_total", self._labels)
        if self.queue_config is not None:
            self.workqueue = WorkQueue(
                host.network.runtime,
                self.queue_config,
                self._process_batch,
                label="kdc.queue",
                metrics=self.metrics,
                labels=self._labels,
                tracer=self.tracer,
            )

    def on_detach(self) -> None:
        """The process stops: queued requests are gone — their senders
        hear nothing and fail over — and so is a batch in service (see
        :meth:`_process_batch`)."""
        super().on_detach()
        if self.workqueue is not None:
            for _datagram, deferred in self.workqueue.drop_pending():
                deferred.resolve(None)
        self.workqueue = None

    @property
    def errors(self) -> int:
        """Requests answered with an error reply (any kind, any code)."""
        all_outcomes = self.metrics.total(
            "kdc.outcomes_total", **self._labels
        )
        ok = self.metrics.total(
            "kdc.outcomes_total", code="OK", **self._labels
        )
        return int(all_outcomes - ok)

    def _life_series(self, kind: str):
        """``kdc.ticket_life_seconds{kind}``, bound when the first ticket
        of the kind is issued — at attach it would put an empty series
        in the export of every KDC that never issues one."""
        series = self._ticket_life[kind] = self.metrics.histogram(
            "kdc.ticket_life_seconds", LIFETIME_BUCKETS, {**self._labels, "kind": kind}
        )
        return series

    def _outcome(self, kind: str, code: str) -> None:
        self.metrics.counter(
            "kdc.outcomes_total", {**self._labels, "kind": kind, "code": code}
        ).inc()

    # -- dispatch -------------------------------------------------------------

    def _handle(self, datagram):
        """Port handler: a batch of one, or admission into the queue."""
        if self.workqueue is None:
            return bytes(self._serve_batch([datagram])[0])
        deferred = DeferredReply()
        if not self.workqueue.submit((datagram, deferred), trace=datagram.trace):
            # Admission control: answer *now* with a typed overload
            # error instead of letting the request rot in a full queue.
            err = error_for_code(
                ErrorCode.KDC_OVERLOADED,
                f"KDC {self.host.name} shed the request (queue full)",
            )
            self._outcome("shed", err.code.name)
            self.audit.emit(
                "overload_shed",
                host=self.host.name,
                trace=datagram.trace,
                detail=f"queue full (limit {self.queue_config.queue_limit})",
            )
            return encode_message(
                MessageType.ERROR, ErrorReply.from_error(err)
            )
        return deferred

    def _process_batch(self, batch) -> None:
        """Worker completion: answer every request in the batch.

        Runs at the batch's simulated completion time; the whole batch
        flows through the staged pipeline (:meth:`_serve_batch`).
        """
        queue = self.workqueue
        if queue is None or queue.current_batch is None:
            # The incarnation that took the batch ended while it was in
            # service (its queue is gone, or replaced by a restart's):
            # the replies died with it, even if the host is back.
            for _datagram, deferred in batch:
                deferred.resolve(None)
            return
        # Per-item queue wait, from the queue's batch metadata (enqueue
        # → service start); the batch's service cost is shared evenly.
        dispatched = queue.current_batch_dispatched_at
        waits = [dispatched - entry.enqueued_at for entry in queue.current_batch]
        service_each = self.queue_config.batch_cost(len(batch)) / len(batch)
        replies = self._serve_batch(
            [datagram for datagram, _deferred in batch],
            waits=waits,
            service_each=service_each,
        )
        for (_datagram, deferred), reply in zip(batch, replies):
            deferred.resolve(bytes(reply))

    def process_request_buffer(self, buffer, src) -> List[memoryview]:
        """Drive the pipeline from one contiguous buffer of
        length-prefixed request frames, returning one reply view per
        frame (in order).

        This is the zero-copy front door the open-loop saturation
        benchmark uses: :class:`BatchReader` slices each request out of
        the buffer as a ``memoryview`` and the replies come back as
        views into one :class:`BatchWriter` output buffer.
        """
        frames = BatchReader(buffer).frames()
        src = IPAddress(src)
        return self._serve_batch(
            [_BufferDatagram(payload=frame, src=src) for frame in frames]
        )

    def _serve_batch(
        self, datagrams, waits=None, service_each=None
    ) -> List[memoryview]:
        """The request plane — every request the KDC answers comes
        through here, be it a datagram answered at arrival, a worker
        batch or a request buffer: decode-all → unseal-all (the TGS
        request side) → lookup-all (one memoized DB pass) → admit →
        unseal-keys (database keys, one pass under the master key) →
        draw (session keys, one pass) → seal-all (one block of every
        message per pass) → encode-all (one output buffer).  No stage
        calls the cipher per item.

        Item failures are per-item: a garbage frame, a typed
        :class:`KerberosError` or a database row that will not unseal
        becomes that slot's error reply and the rest of the batch
        proceeds.  Replies do not depend on how the requests were cut
        into batches — the replay cache is consulted and the key stream
        consumed in item order, and the batched unseals, draws and
        split/interleaved seals are bit-exact by construction.
        """
        n = len(datagrams)
        self._batch_size.observe(n)
        now = self.host.clock.now()
        blocks_before = interleaved_blocks()
        lookups_before = self._lookups_saved.value
        memo_hits_before = self._tgt_memo_total["hit"].value
        # -- stage 1: decode-all -------------------------------------------
        kinds = ["other"] * n
        errors: List[Optional[KerberosError]] = [None] * n
        messages = [None] * n
        principals = [""] * n
        for i, datagram in enumerate(datagrams):
            try:
                mtype, message = decode_message(datagram.payload)
            except KerberosError as err:
                errors[i] = _frameless(err)
                continue
            if mtype in (MessageType.AS_REQ, MessageType.PREAUTH_AS_REQ):
                kinds[i] = "as"
            elif mtype == MessageType.TGS_REQ:
                kinds[i] = "tgs"
            else:
                errors[i] = KerberosError(
                    ErrorCode.KDC_GEN_ERR,
                    f"KDC does not handle {mtype.name} messages",
                )
                continue
            messages[i] = message
            # AS requests name their client in the clear; a TGS request's
            # is filled in once its TGT authenticates it.
            principals[i] = str(getattr(message, "client", "") or "")
            self._requests_total[kinds[i]].inc()
        # -- stage 2: unseal-all (TGS request side, two wide waves) --------
        crypto_ops = [0] * n
        meter = _KeyTouchMeter()
        contexts = self._unseal_all(
            messages, kinds, datagrams, now, errors, crypto_ops, meter
        )
        # -- stage 3: lookup-all → admit → unseal-keys → draw ---------------
        prepared = self._issue_all(
            messages, kinds, datagrams, contexts, now, errors, principals,
            crypto_ops, meter,
        )
        # -- stage 4: seal-all (tickets inside their replies, two runs) ----
        ready = [p for p in prepared if p is not None]
        skeletons = self._skeletons if keycache.caching_enabled() else None
        hits_before = keycache.skeleton_stats()["hit"]
        _ticket_blobs, sealed_bodies = seal_tickets_cached([
            (p.ticket, p.service_key, p.reply_key, p.body().to_bytes())
            for p in ready
        ], skeletons)
        skeleton_hits = keycache.skeleton_stats()["hit"] - hits_before
        if skeleton_hits:
            self._skeleton_hits.inc(skeleton_hits)
        # -- stage 5: encode-all (one output buffer) -----------------------
        writer = BatchWriter()
        sealed_iter = iter(sealed_bodies)
        for i in range(n):
            p = prepared[i]
            if p is not None:
                writer.add(p.mtype, KdcReply(
                    client=p.ticket.client, sealed_body=next(sealed_iter)
                ))
            else:
                writer.add(
                    MessageType.ERROR, ErrorReply.from_error(errors[i])
                )
        replies = writer.finish()
        # -- observability, per batch --------------------------------------
        # Per-stage work counts (deterministic — wall clocks are banned
        # under src/repro): how much of the batch survived decode, how
        # many DB round-trips the memo saved, and what the pooled
        # crypto/encode stages actually did.
        stage_attrs = {
            "stage_decoded": n - messages.count(None),
            "stage_lookups_saved": int(
                self._lookups_saved.value - lookups_before
            ),
            "stage_sealed": len(ready),
            "stage_interleaved_blocks": interleaved_blocks() - blocks_before,
            "stage_skeleton_hits": skeleton_hits,
            "stage_tgt_memo_hits": int(
                self._tgt_memo_total["hit"].value - memo_hits_before
            ),
            "stage_encoded_bytes": sum(map(len, replies)),
        }
        host = self.host.name
        if waits is None:
            heads = [(host,)] * n
        else:
            service_time = round(service_each, 9)
            heads = [(host, round(wait, 9), service_time) for wait in waits]
        keys = (
            "host", *(("queue_wait", "service_time") if waits is not None else ()),
            "batch_size", "crypto_ops", *stage_attrs,
        )
        stage = tuple(stage_attrs.values())
        records, run = [], []
        for i, datagram in enumerate(datagrams):
            kind, err = kinds[i], errors[i]
            if err is None:
                records.append((keys, *heads[i], n, crypto_ops[i], *stage))
                self._ok_total[kind].inc()
                run.append((principals[i], datagram.trace, _OK_DETAIL[kind]))
                continue
            # What Tracer.span records for an exception passing through
            # it; here the refusal is a value.
            records.append((
                keys + ("error",), *heads[i], n, crypto_ops[i], *stage,
                f"{type(err).__name__}: {err}",
            ))
            self._outcome(kind, err.code.name)
            if run:  # the successes before it, in item order
                self.audit.emit_run("auth_success", host, *zip(*run))
                run = []
            self._audit_failure(kind, err, datagram, principals[i])
        if run:
            self.audit.emit_run("auth_success", host, *zip(*run))
        # Written after the fact (nothing ran inside them): one row per
        # item, opened and closed now under its propagated context.
        self.tracer.record_instants(
            [_SPAN_NAME[kind] for kind in kinds],
            [datagram.trace for datagram in datagrams],
            records,
        )
        return replies

    def _unseal_all(
        self, messages, kinds, datagrams, now: float, errors, crypto_ops,
        meter,
    ) -> List[Optional[AuthContext]]:
        """The request side of every TGS item of a batch (Figure 8): the
        ticket-granting service "makes use of the service access
        protocol described in the previous section", so this is
        :func:`krb_rd_req`'s own checklist halves (:func:`check_ticket`,
        :func:`check_authenticator`) run between and after two batched
        unseals, with the TGS itself as the target service.

        The TGT is the one ciphertext the protocol reuses on purpose, so
        the first unseal opens only what the KDC's memo lacks; both
        checklist halves and the replay cache still run for every item,
        memoized or not — replay refusal rests on the fresh
        authenticator, never on the TGT.

        A failing item gets its :class:`KerberosError` in ``errors[i]``;
        a passing one its :class:`AuthContext` in the returned list
        (None for every item that is not an authenticated TGS request).
        The authenticator of a ticket that failed its checks is never
        decrypted, and the replay cache sees the survivors in item order.
        """
        contexts: List[Optional[AuthContext]] = [None] * len(messages)
        # Wave 1: every TGT under its (local or inter-realm) TGS key, the
        # key resolved once per realm the batch names.  A TGT this KDC
        # opened before under the same key comes out of the memo; the
        # rest are unsealed once per distinct blob.
        memo = self._tgt_memo if keycache.caching_enabled() else None
        realm_keys: Dict[str, object] = {}  # a DesKey or its KerberosError
        tickets: Dict[int, object] = {}  # a Ticket or its KerberosError
        opening: Dict[tuple, tuple] = {}  # memo key -> (key, its items)
        hits = misses = 0
        for i, kind in enumerate(kinds):
            if kind != "tgs":
                continue
            realm = messages[i].tgt_realm
            # With the caches off, each item resolves it as it would alone.
            key = realm_keys.get(realm) if memo is not None else None
            if key is None:
                try:
                    key = self._tgt_key(realm)
                except KerberosError as err:
                    key = _frameless(err)
                realm_keys[realm] = key
            crypto_ops[i] += meter.lap()
            if isinstance(key, KerberosError):
                errors[i] = key
                continue
            memo_key = (key.key_bytes, messages[i].tgt)
            ticket = memo.get(memo_key) if memo is not None else None
            if ticket is not None:
                tickets[i] = ticket
                hits += 1
            else:
                tickets[i] = None
                opening.setdefault(memo_key, (key, []))[1].append(i)
        if not tickets:
            return contexts
        opened = unseal_structs(
            Ticket, "ticket",
            [(blob, key) for (_kb, blob), (key, _items) in opening.items()],
        )
        for (memo_key, (_key, items)), ticket in zip(opening.items(), opened):
            ok = not isinstance(ticket, KerberosError)
            if memo is not None:
                if ok:  # a blob that fails to open is never memoized
                    memo.put(memo_key, ticket)
                # The first item unsealed it; its repeats were served as
                # though it had been memoized in between.
                hits += (len(items) - 1) * ok
                misses += 1 + (len(items) - 1) * (not ok)
            for i in items:
                tickets[i] = ticket
        if hits:
            self._tgt_memo_total["hit"].inc(hits)
        if misses:
            self._tgt_memo_total["miss"].inc(misses)
        # Wave 2: the authenticators of the tickets that check out, each
        # under its TGT's session key.
        survivors = []
        for i, ticket in tickets.items():
            if isinstance(ticket, KerberosError):
                errors[i] = ticket
                continue
            try:
                check_ticket(ticket, self.service, now, self.skew)
                survivors.append((i, ticket, ticket.key))
            except KerberosError as err:
                errors[i] = _frameless(err)
            crypto_ops[i] += meter.lap()
        authenticators = unseal_structs(
            Authenticator,
            "authenticator",
            [(messages[i].authenticator, key) for i, _t, key in survivors],
        )
        for (i, ticket, _key), auth in zip(survivors, authenticators):
            if isinstance(auth, KerberosError):
                errors[i] = auth
                continue
            try:
                contexts[i] = check_authenticator(
                    ticket, auth, datagrams[i].src, now,
                    self.replay_cache, self.skew,
                )
            except KerberosError as err:
                errors[i] = _frameless(err)
            crypto_ops[i] += meter.lap()
        return contexts

    def _issue_all(
        self, messages, kinds, datagrams, contexts, now: float, errors,
        principals, crypto_ops, meter,
    ) -> List[Optional[_Prepared]]:
        """Stage 3 — issuance (Figures 5 and 8) up to, not including,
        the sealing, and nothing in it calls the cipher per item:
        lookup-all → admit → unseal-keys → draw → build.  Each substage
        walks the items in order and an item leaves at its first failing
        check, with the :class:`KerberosError` those checks give a
        request served alone; no key is unsealed, and no session key
        drawn, for an item already refused."""
        rows = self._lookup_all(messages, kinds, contexts, now, errors, principals)
        keys: Dict[bytes, DesKey] = {}  # database keys, by sealed blob
        # admit.  Only a client that must first prove its key
        # (preauthentication) needs one unsealed to be admitted: those
        # go ahead, every other key waits for the verdict.
        proving = {
            i: row[0] for i, row in enumerate(rows)
            if row and row[0] is not None and row[0].requires_preauth
        }
        self._unseal_keys(list(proving.items()), keys, errors, crypto_ops, meter)
        lives: Dict[int, float] = {}
        for i, row in enumerate(rows):
            if row is None or errors[i] is not None:
                continue
            try:
                lives[i] = self._admit(messages[i], contexts[i], row, keys, now)
            except KerberosError as err:
                errors[i] = _frameless(err)
        # unseal-keys: what the admitted still need, in item order — an
        # AS item's client key (it seals the reply), then the service's
        # (it seals the ticket) — in one pass under the master key.
        wave = []
        for i in lives:
            if kinds[i] == "as" and i not in proving:
                wave.append((i, rows[i][0]))
            wave.append((i, rows[i][1]))
        self._unseal_keys(wave, keys, errors, crypto_ops, meter)
        admitted = [i for i in lives if errors[i] is None]
        # draw — "generates a random session key": one pass, the k-th
        # admitted item getting the k-th key of the stream.  The KDC
        # only embeds the bytes, so no key schedule is expanded.
        session_keys = self.keygen.session_keys_bytes(len(admitted))
        prepared: List[Optional[_Prepared]] = [None] * len(messages)
        for i, session_key in zip(admitted, session_keys):
            request, context, kind = messages[i], contexts[i], kinds[i]
            client_record, service_record = rows[i]
            if kind == "as":
                mtype = MessageType.AS_REP
                client = request.client.with_realm(self.realm)
                # Figure 5: "encrypted in the client's private key".
                reply_key = keys[client_record.sealed_key]
            else:
                mtype = MessageType.TGS_REP
                client = context.client  # realm preserved from the TGT (Sec. 7.2)
                # Figure 8: "encrypted in the session key that was part
                # of the ticket-granting ticket" — no password again.
                reply_key = context.session_key
            (self._ticket_life.get(kind) or self._life_series(kind)).observe(lives[i])
            prepared[i] = _Prepared(
                mtype=mtype,
                ticket=Ticket(
                    server=self._canonical_ticket_server(request.service),
                    client=client,
                    address=IPAddress(datagrams[i].src).as_int,
                    timestamp=now,
                    life=lives[i],
                    session_key=session_key,
                ),
                service_key=keys[service_record.sealed_key],
                reply_key=reply_key,
                server_field=request.service.with_realm(
                    request.service.realm or self.realm
                ),
                kvno=service_record.key_version,
                request_timestamp=request.timestamp,
            )
        return prepared

    def _lookup_all(
        self, messages, kinds, contexts, now: float, errors, principals
    ) -> List[Optional[tuple]]:
        """Stage 3a: one memoized database pass in item order — per live
        item its ``(client record or None, service record)`` — with the
        TGS refusals that need no key."""
        records: Dict[tuple, PrincipalRecord] = {}
        rows: List[Optional[tuple]] = [None] * len(messages)
        for i, request in enumerate(messages):
            if errors[i] is not None:
                continue
            try:
                if kinds[i] == "as":
                    rows[i] = (
                        self._lookup_client(request.client, now, records),
                        self._lookup_service(request.service, now, records),
                    )
                else:
                    # Authenticated: failures from here on are audited
                    # under the client the TGT names.
                    principals[i] = str(contexts[i].client)
                    rows[i] = (None, self._lookup_tgs_service(
                        request.service, contexts[i].client, now, records
                    ))
            except KerberosError as err:
                errors[i] = _frameless(err)
        return rows

    def _unseal_keys(self, wave, keys, errors, crypto_ops, meter) -> None:
        """The database keys of ``wave`` — ``(item, record)`` pairs —
        into ``keys``, in one pass under the master key ("all passwords
        in the Kerberos database are encrypted in the master database
        key", Section 5.3).  A row whose key will not unseal refuses the
        items that need it and nobody else."""
        if not wave:
            return

        def charge(position: int) -> None:
            # A cold blob's key-schedule touch is the first item's that
            # needs it — what serving the items one at a time charges.
            crypto_ops[wave[position][0]] += meter.lap()

        unsealed = self.db.master_key.unseal_keys(
            [record.sealed_key for _i, record in wave], charge
        )
        for (i, record), key in zip(wave, unsealed):
            if not isinstance(key, MasterKeyError):
                keys[record.sealed_key] = key
            elif errors[i] is None:  # its first failing check
                errors[i] = KerberosError(
                    ErrorCode.KDC_GEN_ERR,
                    f"database entry {record.name}.{record.instance}: {key}",
                )

    def _admit(self, request, context, row, keys, now: float) -> float:
        """One item's last checks — those that need the client's key —
        and the life its ticket is granted."""
        client_record, service_record = row
        if context is not None:
            # "The lifetime of the new ticket is the minimum of the
            # remaining life for the ticket-granting ticket and the
            # default for the service."
            ceiling = context.ticket.remaining_life(now)
        else:
            ceiling = client_record.max_life
            # Preauthentication (extension, see PreauthAsRequest):
            # principals flagged require-preauth get no reply without
            # proof of their key.
            if client_record.requires_preauth:
                if not isinstance(request, PreauthAsRequest):
                    raise KerberosError(
                        ErrorCode.KDC_PREAUTH_REQUIRED,
                        f"{request.client} requires preauthentication",
                    )
                if abs(now - request.timestamp) > self.skew:
                    raise KerberosError(
                        ErrorCode.KDC_PREAUTH_FAILED,
                        "preauthentication timestamp outside the skew window",
                    )
                client_key = keys[client_record.sealed_key]
                if not verify_preauth(request.preauth, client_key, request.timestamp):
                    raise KerberosError(
                        ErrorCode.KDC_PREAUTH_FAILED,
                        "preauthentication did not verify",
                    )
        return max(0.0, min(request.requested_life, ceiling, service_record.max_life))

    def _get_record(self, principal: Principal, records) -> PrincipalRecord:
        """DB row fetch, memoized in the batch's ``records``."""
        # Keyed by the three names, not the Principal: a tuple of strs
        # hashes in C, a WireStruct through a Python-level __hash__.
        key = (principal.name, principal.instance, principal.realm)
        record = records.get(key)
        if record is None:
            record = records[key] = self.db.get_record(principal)
        else:
            self._lookups_saved.inc()
        return record

    def _audit_failure(
        self, kind: str, err: KerberosError, datagram, principal: str
    ) -> None:
        """Map a failed exchange to its audit event.  Replays are
        already reported by the replay cache itself; a PREAUTH_REQUIRED
        bounce is normal negotiation (the client retries with proof),
        not a security event."""
        if err.code in (ErrorCode.RD_AP_REPEAT, ErrorCode.KDC_PREAUTH_REQUIRED):
            return
        event = (
            "preauth_failure"
            if err.code == ErrorCode.KDC_PREAUTH_FAILED
            else "auth_failure"
        )
        self.audit.emit(
            event,
            host=self.host.name,
            principal=principal,
            trace=datagram.trace,
            detail=f"kind={kind} code={err.code.name}",
        )

    # -- shared pieces -----------------------------------------------------------

    def _lookup_client(
        self, client: Principal, now: float, records
    ) -> PrincipalRecord:
        try:
            record = self._get_record(client, records)
        except NoSuchPrincipal as exc:
            # In a realm an unknown client is first checked against
            # the ring: a principal another shard owns gets a
            # typed referral naming the owner, not PR_UNKNOWN.  Records
            # present locally never reach this branch — so a range being
            # double-served during a move answers normally.
            if self.shard is not None:
                referral = self.shard.referral_for(client.db_key())
                if referral is not None:
                    self.metrics.counter(
                        "kdc.referrals_total", self._labels
                    ).inc()
                    raise referral from exc
            raise KerberosError(ErrorCode.KDC_PR_UNKNOWN, str(exc)) from exc
        if record.expired(now):
            raise KerberosError(
                ErrorCode.KDC_PR_EXPIRED, f"principal {client} has expired"
            )
        if record.disabled:
            raise KerberosError(
                ErrorCode.KDC_PR_DISABLED, f"principal {client} is disabled"
            )
        return record

    def _lookup_service(
        self, service: Principal, now: float, records
    ) -> PrincipalRecord:
        try:
            record = self._get_record(service, records)
        except NoSuchPrincipal as exc:
            raise KerberosError(ErrorCode.KDC_SERVICE_UNKNOWN, str(exc)) from exc
        if record.expired(now):
            raise KerberosError(
                ErrorCode.KDC_SERVICE_EXPIRED, f"service {service} has expired"
            )
        return record

    def _lookup_tgs_service(
        self, service: Principal, client: Principal, now: float, records
    ) -> PrincipalRecord:
        record = self._lookup_service(service, now, records)
        # Section 5.1: "the ticket-granting service will not issue
        # tickets for it" — services flagged no-TGT (the KDBM) must be
        # reached through the authentication service instead.
        if not record.tgt_allowed:
            raise KerberosError(
                ErrorCode.KDC_PR_NOTGT,
                f"{service} tickets are only issued by the "
                "authentication service (a password is required)",
            )
        # The paper stops at one hop: a foreign client may use local
        # services, but chaining onward to a third realm would require
        # recording "the entire path that was taken" (Section 7.2).
        is_remote_tgs = service.is_tgs and service.instance != self.realm
        if is_remote_tgs and client.realm != self.realm:
            raise KerberosError(
                ErrorCode.KDC_NO_CROSS_REALM,
                "realm chaining not supported: only the initial "
                "authentication realm is recorded in tickets",
            )
        return record

    def _canonical_ticket_server(self, service: Principal) -> Principal:
        """Tickets for a *remote* TGS (cross-realm) are written with the
        server as that realm knows itself, so the remote KDC's own
        identity check passes."""
        if service.is_tgs and service.instance != self.realm:
            return tgs_principal(service.instance)
        return service.with_realm(self.realm)

    def _tgt_key(self, tgt_realm: str) -> DesKey:
        """The key that should open the presented TGT: our own TGS key for
        local TGTs, the inter-realm key for foreign ones."""
        try:
            if tgt_realm == self.realm:
                return self.db.principal_key(self.service)
            return self.db.principal_key(
                Principal(XREALM_NAME, tgt_realm, self.realm)
            )
        except NoSuchPrincipal:
            raise KerberosError(
                ErrorCode.KDC_NO_CROSS_REALM,
                f"no inter-realm key with {tgt_realm}",
            ) from None
        except MasterKeyError as exc:
            raise KerberosError(
                ErrorCode.KDC_GEN_ERR, f"TGS key for {tgt_realm}: {exc}"
            ) from None

