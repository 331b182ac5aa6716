"""KDC discovery as one protocol: the :class:`KdcLocator`.

"Which KDC do I send this to?" has one answer: the client holds one
:class:`KdcLocator` per realm and asks it, per request, for a
failover-ordered address list.  Implementations:

* :class:`StaticLocator` (here) — a fixed list, current master first
  (``/etc/krb.conf``, or a client pinned to one KDC).
* :class:`~repro.realm.sharding.ShardedLocator` — what a realm hands its
  workstations: routes by principal through a consistent-hash ring
  snapshot, one replica list per shard, fetched lazily from a ring
  source — the realm itself (``LocalRingSource``) or its Hesiod records
  (``HesiodRingSource``) — and dropped by :meth:`~KdcLocator.refresh`.

The protocol is deliberately protocol-agnostic (the PKINIT line of
work makes the same point about client-side KDC selection): ``locate``
takes only an opaque routing key — the principal's database key — and
returns addresses, so new exchange types need no new discovery code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.netsim import IPAddress


class KdcLocator:
    """Where are the KDCs of one realm, for one request?

    ``locate`` answers with a failover-ordered address list — the
    first entry is tried first, so implementations put the preferred
    KDC (the master, or the owning shard's master) at the head; the
    client rides the whole list through ``run_with_failover``.
    """

    def locate(self, routing_key: Optional[str] = None) -> List[IPAddress]:
        """Addresses to try, in failover order.

        ``routing_key`` is the principal's database key (``name`` or
        ``name.instance``) when the request has one — the AS exchange's
        client, the TGS exchange's authenticated owner.  A static list
        ignores it.  An empty list means the locator knows no KDC yet.
        """
        raise NotImplementedError

    def refresh(self) -> None:
        """Forget the cached view, so the next :meth:`locate` re-reads
        the discovery source (a no-op for static lists).

        Called by the client when its cached view proved stale — e.g.
        after a :class:`~repro.core.errors.WrongShard` referral."""

    def apply_referral(self, referral) -> None:
        """Fold a :class:`~repro.core.errors.WrongShard` referral into
        the locator's view, so the *next* request routes correctly
        without waiting for a full refresh.  Default: refresh."""
        self.refresh()


class StaticLocator(KdcLocator):
    """A fixed, explicitly configured KDC list — the /etc/krb.conf of
    the era.  Failover order is the list order: current master first."""

    def __init__(self, addresses: Sequence) -> None:
        if not addresses:
            raise ValueError("at least one KDC address is required")
        self._addresses = [IPAddress(a) for a in addresses]

    def locate(self, routing_key: Optional[str] = None) -> List[IPAddress]:
        return list(self._addresses)

    def set_addresses(self, addresses: Sequence) -> None:
        """Replace the list — the re-point a workstation applies when
        discovery tells it the master moved."""
        if not addresses:
            raise ValueError("at least one KDC address is required")
        self._addresses = [IPAddress(a) for a in addresses]


__all__ = ["KdcLocator", "StaticLocator"]
