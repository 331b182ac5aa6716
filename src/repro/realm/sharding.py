"""Horizontal sharding of the principal database (the ROADMAP's
"million principals behind one realm name").

The paper sizes a realm at Athena's thousands of users; one master
database serves them all.  This module partitions the principal space
by name hash across N KDC **shards** — each shard a full master+slaves
group with its own update-journal epoch (PR 5) and worker pool (PR 4)
— behind a consistent-hash ring, the shape of GRR's horizontally
sharded datastore:

* :class:`HashRing` — the partition function: a 32-bit hash space cut
  into segments, each owned by one shard, seeded deterministically
  from the realm name so every party derives the same ring.
* :class:`ShardMembership` — a KDC's server-side view: "do I own this
  principal?"  A request for a principal the ring assigns elsewhere is
  answered with a typed :class:`~repro.core.errors.WrongShard`
  *referral* carrying the authoritative shard's addresses, counted in
  ``kdc.referrals_total``.
* :class:`ShardedLocator` — the client-side routing layer: a
  :class:`~repro.core.locator.KdcLocator` holding a ring *snapshot*
  (from the realm directly, or from Hesiod's ``_kerberos-ring``
  record), routing each exchange to the owning shard's replica list;
  per-shard failover rides the existing ``run_with_failover`` policy.
* :func:`move_range` — rebalancing as journal-entry replay over the
  delta-kprop transport: the range's records stream through the source
  shard's :class:`~repro.replication.kprop.Kprop` as
  :class:`~repro.database.journal.JournalEntry` chunks under the
  master-key MAC into the target's
  :class:`~repro.replication.receiver.RangeReceiver`, the target
  *double-serves* the range during the handoff window, then the ring
  epoch flips and the source deletes the moved records.

Stale clients are the design's steady state, not an error: a ring
change invalidates every cached snapshot at once, and the referral
path repairs each client lazily, one bounced request at a time.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.apps.hesiod import (
    RING_RECORD_PREFIX,
    HesiodRingRecord,
    hesiod_lookup,
    shard_record_name,
)
from repro.core.errors import ErrorCode, WrongShard, referral_text
from repro.core.locator import KdcLocator
from repro.database.db import MASTER_VERIFY_KEY
from repro.database.journal import JournalEntry, OP_DELETE, OP_PUT
from repro.netsim import IPAddress
from repro.netsim.ports import HESIOD_PORT, SHARD_PORT
from repro.realm.bootstrap import Realm, RealmTopology
from repro.replication.messages import (
    DeltaBody,
    DeltaReply,
    DeltaStatus,
    PropKind,
)

#: The ring's hash space: 32 bits, like the historical consistent-hash
#: deployments — comfortably finer than any realistic shard count.
RING_BITS = 32
RING_SPACE = 1 << RING_BITS

#: Virtual nodes per shard when seeding a ring: enough that the largest
#: arc is within a small factor of fair share, few enough that segment
#: lists stay readable in traces.
DEFAULT_VNODES = 16

#: Journal entries per datagram when streaming a range — bounds packet
#: size the way delta kprop chunks its transfers.
STREAM_CHUNK = 256


def hash_point(key: str) -> int:
    """A principal db-key's position on the ring.

    SHA-256-derived rather than Python's ``hash``: stable across
    processes and runs, so client and KDC always agree — the whole
    scheme is one shared pure function of the key.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class HashRing:
    """The partition function: sorted ``(start, shard)`` segments over
    the 32-bit hash space.  A point belongs to the segment with the
    greatest start at or below it (wrapping below the first segment).

    ``epoch`` increments on every :meth:`move_range`; clients compare
    epochs to recognize a stale snapshot from a referral.
    """

    def __init__(
        self, segments: List[Tuple[int, int]], epoch: int = 1,
        n_shards: Optional[int] = None,
    ) -> None:
        if not segments:
            raise ValueError("a ring needs at least one segment")
        self._segments = sorted(
            (int(p) % RING_SPACE, int(s)) for p, s in segments
        )
        self._merge()
        self.epoch = int(epoch)
        self.n_shards = (
            int(n_shards) if n_shards is not None
            else max(s for _, s in self._segments) + 1
        )

    @classmethod
    def seeded(
        cls, realm: str, n_shards: int, vnodes: int = DEFAULT_VNODES,
        epoch: int = 1,
    ) -> "HashRing":
        """The deterministic bootstrap ring: ``vnodes`` points per shard
        hashed from ``realm|shard|vnode``.  Same inputs, same ring —
        every KDC, client, and test derives an identical partition."""
        if n_shards < 1:
            raise ValueError("need at least one shard")
        points: Dict[int, int] = {}
        for shard in range(n_shards):
            for v in range(vnodes):
                p = hash_point(f"{realm}|shard{shard}|vnode{v}")
                # Collisions resolve to the lowest shard id — any
                # deterministic rule works, it just must be *a* rule.
                if p not in points or shard < points[p]:
                    points[p] = shard
        return cls(
            sorted(points.items()), epoch=epoch, n_shards=n_shards
        )

    def _merge(self) -> None:
        merged: List[Tuple[int, int]] = []
        for start, shard in self._segments:
            if merged and merged[-1][1] == shard:
                continue
            merged.append((start, shard))
        self._segments = merged

    # -- lookup -----------------------------------------------------------

    def shard_for_point(self, point: int) -> int:
        point %= RING_SPACE
        # Greatest start <= point; below the first start, wrap to last.
        lo, hi = 0, len(self._segments)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._segments[mid][0] <= point:
                lo = mid + 1
            else:
                hi = mid
        return self._segments[lo - 1][1]  # lo==0 wraps via index -1

    def shard_for(self, key: str) -> int:
        return self.shard_for_point(hash_point(key))

    def shards(self) -> List[int]:
        return sorted({s for _, s in self._segments})

    def segments(self) -> List[Tuple[int, int]]:
        return list(self._segments)

    def segments_in(self, lo: int, hi: int) -> List[Tuple[int, int, int]]:
        """Decompose the half-open range ``[lo, hi)`` into maximal
        ``(sub_lo, sub_hi, owner)`` pieces (no wrap-around; callers
        split a wrapping range into two)."""
        if not 0 <= lo < hi <= RING_SPACE:
            raise ValueError(f"bad range [{lo}, {hi})")
        cuts = [lo] + [
            p for p, _ in self._segments if lo < p < hi
        ] + [hi]
        return [
            (a, b, self.shard_for_point(a))
            for a, b in zip(cuts, cuts[1:])
        ]

    def arcs_of(self, shard: int) -> List[Tuple[int, int]]:
        """The half-open ``[lo, hi)`` ranges ``shard`` owns (the final
        wrap-around arc is reported as ``[lo, RING_SPACE)`` plus
        ``[0, first_start)``)."""
        arcs = []
        segs = self._segments
        for i, (start, owner) in enumerate(segs):
            if owner != shard:
                continue
            end = segs[i + 1][0] if i + 1 < len(segs) else RING_SPACE
            arcs.append((start, end))
        if segs[-1][1] == shard and segs[0][0] > 0:
            arcs.append((0, segs[0][0]))
        return arcs

    # -- mutation ---------------------------------------------------------

    def move_range(self, lo: int, hi: int, to_shard: int) -> None:
        """Reassign ``[lo, hi)`` to ``to_shard`` and flip the epoch.
        Pure ring surgery — the data motion lives in
        :func:`repro.realm.sharding.move_range`."""
        if not 0 <= lo < hi <= RING_SPACE:
            raise ValueError(f"bad range [{lo}, {hi})")
        boundary = hi % RING_SPACE
        owner_after = self.shard_for_point(boundary)
        kept = [(p, s) for p, s in self._segments if not lo <= p < hi]
        kept.append((lo, int(to_shard)))
        if not any(p == boundary for p, _ in kept):
            kept.append((boundary, owner_after))
        self._segments = sorted(kept)
        self._merge()
        self.n_shards = max(self.n_shards, int(to_shard) + 1)
        self.epoch += 1

    # -- snapshots and wire form ------------------------------------------

    def copy(self) -> "HashRing":
        return HashRing(
            list(self._segments), epoch=self.epoch, n_shards=self.n_shards
        )

    def to_record(self, realm: str) -> HesiodRingRecord:
        return HesiodRingRecord(
            realm=realm,
            epoch=self.epoch,
            n_shards=self.n_shards,
            segments=[f"{p}:{s}" for p, s in self._segments],
        )

    @classmethod
    def from_record(cls, record: HesiodRingRecord) -> "HashRing":
        segments = []
        for item in record.segments:
            p, _, s = item.partition(":")
            segments.append((int(p), int(s)))
        return cls(
            segments, epoch=record.epoch, n_shards=record.n_shards
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashRing)
            and self._segments == other._segments
            and self.epoch == other.epoch
        )

    def __repr__(self) -> str:
        return (
            f"HashRing(epoch={self.epoch}, n_shards={self.n_shards}, "
            f"segments={len(self._segments)})"
        )


class ShardDirectory:
    """shard id -> that shard's KDC addresses, shard master first.

    The realm holds the live copy; locators hold snapshots of it."""

    def __init__(
        self, entries: Optional[Dict[int, List[IPAddress]]] = None
    ) -> None:
        self._entries: Dict[int, List[IPAddress]] = {}
        for shard, addresses in (entries or {}).items():
            self.set_shard(shard, addresses)

    def set_shard(self, shard: int, addresses: Iterable) -> None:
        self._entries[int(shard)] = [IPAddress(a) for a in addresses]

    def addresses(self, shard: int) -> List[IPAddress]:
        return list(self._entries.get(int(shard), []))

    def snapshot(self) -> Dict[int, List[IPAddress]]:
        return {s: list(a) for s, a in self._entries.items()}


class ShardMembership:
    """One KDC's authoritative answer to "is this principal mine?"

    Shared by every KDC (master and slaves) of one shard; holds the
    realm's *live* ring, the shard's id, and the ``extra_ranges`` the
    shard double-serves during a handoff window.
    """

    def __init__(
        self, shard_id: int, ring: HashRing, directory: ShardDirectory
    ) -> None:
        self.shard_id = int(shard_id)
        self.ring = ring
        self.directory = directory
        #: Half-open ``[lo, hi)`` ranges served *in addition to* the
        #: ring's assignment — open during a range move, cleared at the
        #: epoch flip.
        self.extra_ranges: List[Tuple[int, int]] = []

    def owns_point(self, point: int) -> bool:
        if self.ring.shard_for_point(point) == self.shard_id:
            return True
        return any(lo <= point < hi for lo, hi in self.extra_ranges)

    def referral_for(self, key: str) -> Optional[WrongShard]:
        """The typed referral for a principal this shard does not own —
        None when the ring says the principal *is* ours (an unknown
        name here is genuinely unknown, not misrouted)."""
        point = hash_point(key)
        if self.owns_point(point):
            return None
        owner = self.ring.shard_for_point(point)
        return WrongShard(
            ErrorCode.KDC_WRONG_SHARD,
            referral_text(
                owner, self.ring.epoch, self.directory.addresses(owner)
            ),
        )


class LocalRingSource:
    """Snapshot source wired straight to the realm object — what the
    realm's own workstations use (no discovery round-trip)."""

    def __init__(self, realm) -> None:
        self._realm = realm

    def fetch(self) -> Tuple[HashRing, Dict[int, List[IPAddress]]]:
        return self._realm.ring.copy(), self._realm.directory.snapshot()


class HesiodRingSource:
    """Snapshot source reading the ``_kerberos-ring`` and
    ``_kerberos-shard.N`` records from a Hesiod server — the
    discovery path a real workstation would use."""

    def __init__(
        self, host, hesiod_address, realm: str, port: int = HESIOD_PORT
    ) -> None:
        self._host = host
        self._hesiod = IPAddress(hesiod_address)
        self._realm = realm
        self._port = port

    def fetch(self) -> Tuple[HashRing, Dict[int, List[IPAddress]]]:
        record = hesiod_lookup(
            self._host, self._hesiod, RING_RECORD_PREFIX + self._realm,
            port=self._port,
        )
        if record is None:
            raise ValueError(
                f"Hesiod serves no ring record for realm {self._realm}"
            )
        ring = HashRing.from_record(record)
        directory: Dict[int, List[IPAddress]] = {}
        for shard in range(record.n_shards):
            listed = hesiod_lookup(
                self._host, self._hesiod,
                shard_record_name(self._realm, shard), port=self._port,
            )
            if listed is not None and listed.addresses:
                directory[shard] = [IPAddress(a) for a in listed.addresses]
        return ring, directory


class ShardedLocator(KdcLocator):
    """Client-side shard routing: hash the principal, return the owning
    shard's replica list (shard master first — per-shard failover then
    rides ``run_with_failover`` unchanged).

    Holds a *snapshot* of ring + directory, refreshed only on
    :meth:`refresh` or a referral — deliberately allowed to go stale,
    because the server-side :class:`WrongShard` referral is the
    convergence mechanism after a ring change.
    """

    def __init__(self, source) -> None:
        self._source = source
        self._ring: Optional[HashRing] = None
        self._directory: Dict[int, List[IPAddress]] = {}

    def _ensure(self) -> None:
        if self._ring is None:
            self._ring, self._directory = self._source.fetch()

    @property
    def ring_epoch(self) -> int:
        self._ensure()
        return self._ring.epoch

    def locate(self, routing_key: Optional[str] = None) -> List[IPAddress]:
        self._ensure()
        if routing_key is None:
            # No principal to route by (introspection, probes): the
            # lowest shard answers — any shard can referral-correct.
            shards = sorted(self._directory)
            return list(self._directory[shards[0]]) if shards else []
        shard = self._ring.shard_for(routing_key)
        return list(self._directory.get(shard, []))

    def refresh(self) -> None:
        self._ring, self._directory = self._source.fetch()

    def apply_referral(self, referral) -> None:
        """Fold a referral in: adopt the authoritative shard's address
        list immediately, and re-fetch the ring when the referrer's
        epoch is ahead of our snapshot."""
        shard = getattr(referral, "shard", -1)
        kdcs = getattr(referral, "kdcs", [])
        if shard >= 0 and kdcs:
            self._directory[shard] = [IPAddress(a) for a in kdcs]
        if getattr(referral, "ring_epoch", 0) > self.ring_epoch:
            self.refresh()


class RangeMoveResult(NamedTuple):
    """What one :func:`move_range` did."""

    moved: int          # records streamed (snapshot + catch-up)
    deleted: int        # records removed from source shards
    epoch: int          # ring epoch after the flip
    sources: List[int]  # shard ids that gave up part of the range


def _stream(
    source, address: IPAddress, position: Tuple[int, int],
    entries: List[JournalEntry], now: float,
) -> Tuple[int, int]:
    """Ship ``entries`` to the target's range receiver through the
    source shard's kprop, in chunks continuing at ``position`` — the
    move's running ``(ring epoch, from_seq)`` — and return the position
    after them."""
    epoch, sent = position
    for i in range(0, len(entries), STREAM_CHUNK):
        chunk = entries[i:i + STREAM_CHUNK]
        body = DeltaBody(
            epoch=epoch,
            from_seq=sent,
            to_seq=sent + len(chunk),
            time=now,
            entries=chunk,
        ).to_bytes()
        reply = DeltaReply.from_bytes(source.kprop.send(
            address, source.kprop.seal(PropKind.DELTA, body), SHARD_PORT
        ))
        if reply.status != int(DeltaStatus.OK):
            raise RuntimeError(
                f"range transfer rejected by target shard: {reply.text}"
            )
        sent += len(chunk)
    return epoch, sent


def move_range(realm, lo: int, hi: int, to_shard: int) -> RangeMoveResult:
    """Move the hash range ``[lo, hi)`` to ``to_shard``: stream, then
    double-serve, then flip, then delete.

    1. The target opens a **double-serve** window for the range, so a
       request that lands there mid-move is answered, not bounced back.
    2. Each source shard streams its records in the range as journal
       entries over the delta-kprop transport (master-key MAC), then a
       catch-up pass replays anything journaled *during* the stream —
       the event loop pumps while RPCs are in flight, so concurrent
       password changes are real.
    3. The ring reassigns the range and flips its epoch (clients learn
       lazily, via refresh or :class:`WrongShard` referrals).
    4. The sources delete the moved records (journaled, so their slaves
       follow), closing the window.
    """
    ring = realm.ring
    if ring is None:
        raise ValueError("move_range needs a sharded realm")
    if not 0 <= int(to_shard) < len(realm.shards):
        raise ValueError(f"no shard {to_shard} in realm {realm.name}")
    pieces = ring.segments_in(lo, hi)
    source_ids = sorted({
        owner for _a, _b, owner in pieces if owner != int(to_shard)
    })
    target = realm.shards[int(to_shard)]
    result_epoch = ring.epoch
    if not source_ids:
        return RangeMoveResult(0, 0, result_epoch, [])
    net = realm.net
    now = net.clock.now()
    window = (int(lo), int(hi))
    target.receiver.open(window)
    # One running position for the whole move: every chunk from every
    # source is the next one in order at this ring epoch.
    position = (ring.epoch, 0)
    moved = deleted = 0
    moved_keys: Dict[int, List[str]] = {}
    try:
        for sid in source_ids:
            source = realm.shards[sid]
            own_pieces = [
                (a, b) for a, b, owner in pieces if owner == sid
            ]

            def in_range(key: str, own_pieces=own_pieces) -> bool:
                if key == MASTER_VERIFY_KEY or realm.is_global_key(key):
                    return False
                p = hash_point(key)
                return any(a <= p < b for a, b in own_pieces)

            mark = source.db.journal.last_seq
            snapshot = [
                JournalEntry(
                    seq=i + 1, time=now, op=OP_PUT, key=key,
                    value=bytes(value),
                )
                for i, (key, value) in enumerate(
                    sorted(source.db.store.items())
                )
                if in_range(key)
            ]
            position = _stream(
                source, target.master_host.address, position, snapshot, now
            )
            # Catch-up: mutations journaled while the stream's RPCs
            # pumped the event loop (kpasswd mid-move, new users).
            tail = source.db.journal.entries_matching(mark, in_range)
            if tail:
                position = _stream(
                    source, target.master_host.address, position, tail,
                    net.clock.now(),
                )
            keys = {e.key for e in snapshot} | {
                e.key for e in tail if e.op == OP_PUT
            }
            keys -= {e.key for e in tail if e.op == OP_DELETE}
            moved_keys[sid] = sorted(keys)
            moved += len(snapshot) + len(tail)
        # The flip: from here the ring names the target as owner.
        ring.move_range(lo, hi, int(to_shard))
        result_epoch = ring.epoch
    finally:
        target.receiver.close(window)
    flip_time = net.clock.now()
    for sid in source_ids:
        source = realm.shards[sid]
        for key in moved_keys[sid]:
            if source.db.remove_record(key, now=flip_time):
                deleted += 1
    net.metrics.counter(
        "shard.rebalance_entries_total", {"realm": realm.name}
    ).inc(moved)
    net.metrics.gauge(
        "shard.ring_epoch", {"realm": realm.name}
    ).set(ring.epoch)
    realm.republish_ring()
    # Let the affected shards' slaves catch up promptly rather than
    # waiting for the cadence: the target replicates the imports, the
    # sources replicate the deletes.
    for sid in source_ids + [int(to_shard)]:
        shard = realm.shards[sid]
        if shard.slaves:
            shard.kprop.propagate()
    net.audit.emit(
        "shard_rebalanced",
        host=target.master_host.name,
        detail=(
            f"range [{lo}, {hi}) -> shard {to_shard} from "
            f"{source_ids}; {moved} entries, epoch {ring.epoch}"
        ),
    )
    return RangeMoveResult(moved, deleted, result_epoch, source_ids)


class ShardedRealm(Realm):
    """A realm whose principal database is partitioned across N shards.

    Sugar over ``Realm(topology=RealmTopology(shards=N, ring=True))`` —
    one bootstrap path, per the API-redesign satellite.  ``ring=True``
    means even a one-shard :class:`ShardedRealm` carries the ring
    machinery, so it can grow by :meth:`move_range` later.
    """

    def __init__(
        self,
        net,
        name: str,
        shards: int = 2,
        slaves_per_shard: int = 0,
        master_password: str = "master-password",
        seed: bytes = b"realm-seed",
        host_prefix: Optional[str] = None,
        kdc_queue=None,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        super().__init__(
            net,
            name,
            master_password=master_password,
            seed=seed,
            host_prefix=host_prefix,
            topology=RealmTopology(
                shards=shards,
                slaves_per_shard=slaves_per_shard,
                kdc_queue=kdc_queue,
                vnodes=vnodes,
                ring=True,
            ),
        )

    def move_range(self, lo: int, hi: int, to_shard: int) -> RangeMoveResult:
        """Rebalance: see :func:`repro.realm.sharding.move_range`."""
        return move_range(self, lo, hi, to_shard)


__all__ = [
    "DEFAULT_VNODES",
    "HashRing",
    "HesiodRingSource",
    "LocalRingSource",
    "RangeMoveResult",
    "RING_SPACE",
    "ShardDirectory",
    "ShardMembership",
    "ShardedLocator",
    "ShardedRealm",
    "hash_point",
    "move_range",
]
