"""The Hesiod nameserver (paper Section 2.2 and the appendix).

*"Other user information, such as real name, phone number, and so
forth, is kept by another server, the Hesiod nameserver.  This way,
sensitive information, namely passwords, can be handled by Kerberos ...
while the non-sensitive information kept by Hesiod is dealt with
differently; it can, for example, be sent unencrypted over the
network."*

And from the appendix: *"the user's home directory is located by
consulting the Hesiod naming service"* and *"The Hesiod service is also
used to construct an entry in the local password file."*

Deliberately unauthenticated and unencrypted — that is the design point
the paper is making about separating sensitive from non-sensitive data.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.locator import KdcLocator
from repro.core.service import Service
from repro.encode import WireStruct, field
from repro.netsim import Host, IPAddress
from repro.netsim.ports import HESIOD_PORT


class HesiodEntry(WireStruct):
    """The passwd-style record Hesiod serves for a user."""

    FIELDS = (
        field("username", "string"),
        field("uid", "u32"),
        field("gids", "list:u32"),
        field("fullname", "string"),
        field("home_server", "string"),   # fileserver hostname
        field("home_path", "string"),     # path on that server
        field("shell", "string"),
    )

    def passwd_line(self) -> str:
        """The /etc/passwd line the login program constructs."""
        gid = self.gids[0] if self.gids else 0
        return (
            f"{self.username}:*:{self.uid}:{gid}:{self.fullname}:"
            f"{self.home_path}:{self.shell}"
        )


class HesiodQuery(WireStruct):
    FIELDS = (field("username", "string"),)


class HesiodReply(WireStruct):
    FIELDS = (field("found", "bool"), field("entry_bytes", "bytes"))


#: Name prefix under which realm→KDC-list records live, the way real
#: Hesiod keeps service records under reserved names.  A query for
#: ``_kerberos.<REALM>`` answers with a :class:`HesiodKdcRecord` —
#: this is the client-discovery channel the realm supervisor re-points
#: after promoting a new master.
KDC_RECORD_PREFIX = "_kerberos."

#: Ring descriptor record for a sharded realm: ``_kerberos-ring.<REALM>``
#: answers with a :class:`HesiodRingRecord` naming the ring epoch and
#: hash-space segments, from which a client builds its routing snapshot.
RING_RECORD_PREFIX = "_kerberos-ring."

#: Per-shard KDC list: ``_kerberos-shard.<N>.<REALM>`` answers with a
#: :class:`HesiodKdcRecord` for shard N (that shard's master first).
SHARD_RECORD_PREFIX = "_kerberos-shard."


class HesiodKdcRecord(WireStruct):
    """The KDC list for one realm, current master first."""

    FIELDS = (field("realm", "string"), field("addresses", "list:string"))


class HesiodRingRecord(WireStruct):
    """A sharded realm's consistent-hash ring, as published through
    Hesiod.  Segments are ``"<start>:<shard>"`` strings: the shard owns
    hash points from ``start`` up to the next segment's start (the last
    wraps around).  Unauthenticated by design, like every Hesiod record
    — a wrong ring costs the client one :class:`WrongShard` referral
    round-trip, never a security property."""

    FIELDS = (
        field("realm", "string"),
        field("epoch", "u64"),
        field("n_shards", "u32"),
        field("segments", "list:string"),
    )


#: Which record type a queried name holds, by its prefix (first match);
#: a name with no reserved prefix is a user's :class:`HesiodEntry`.
RECORD_TYPES = (
    (RING_RECORD_PREFIX, HesiodRingRecord),
    (SHARD_RECORD_PREFIX, HesiodKdcRecord),
    (KDC_RECORD_PREFIX, HesiodKdcRecord),
    ("", HesiodEntry),
)


def shard_record_name(realm: str, shard: int) -> str:
    return f"{SHARD_RECORD_PREFIX}{int(shard)}.{realm}"


class HesiodServer(Service):
    """Serves directory records — user entries and the reserved
    ``_kerberos*`` service records — by name, in the clear."""

    def __init__(self, port: int = HESIOD_PORT) -> None:
        super().__init__()
        self.port = port
        #: queried name -> record; every kind of record lives here.
        self._records: Dict[str, WireStruct] = {}
        self.queries = 0

    def ports(self):
        return {self.port: self._handle}

    def add_user(
        self,
        username: str,
        uid: int,
        gids: List[int],
        home_server: str,
        home_path: str,
        fullname: str = "",
        shell: str = "/bin/sh",
    ) -> HesiodEntry:
        entry = HesiodEntry(
            username=username,
            uid=uid,
            gids=list(gids),
            fullname=fullname or username,
            home_server=home_server,
            home_path=home_path,
            shell=shell,
        )
        self._records[username] = entry
        return entry

    def local_lookup(self, name: str) -> Optional[WireStruct]:
        return self._records.get(name)

    # -- realm KDC records ----------------------------------------------------

    def store_kdc_list(self, realm: str, addresses) -> None:
        """Publish (or replace) the KDC list served for ``realm``.  The
        order is the clients' failover order: current master first."""
        self._records[KDC_RECORD_PREFIX + realm] = HesiodKdcRecord(
            realm=realm, addresses=[str(IPAddress(a)) for a in addresses]
        )

    def store_shard_kdc_list(
        self, realm: str, shard: int, addresses
    ) -> None:
        """Publish one shard's KDC list (that shard's master first)."""
        self._records[shard_record_name(realm, shard)] = HesiodKdcRecord(
            realm=realm, addresses=[str(IPAddress(a)) for a in addresses]
        )

    def store_ring(self, record: HesiodRingRecord) -> None:
        """Publish (or replace) a sharded realm's ring descriptor."""
        self._records[RING_RECORD_PREFIX + record.realm] = record

    def _handle(self, datagram) -> bytes:
        # Hesiod never errors, it just doesn't know.
        self.queries += 1
        record = self._records.get(
            HesiodQuery.from_bytes(datagram.payload).username
        )
        return HesiodReply(
            found=record is not None,
            entry_bytes=b"" if record is None else record.to_bytes(),
        ).to_bytes()


def hesiod_lookup(
    host: Host, hesiod_address, name: str, port: int = HESIOD_PORT
) -> Optional[WireStruct]:
    """The client-side query: what the login program runs for a user's
    :class:`HesiodEntry`, and what a workstation runs for the reserved
    names — ``_kerberos.<REALM>`` at login time and again when its
    configured KDCs stop answering, ``_kerberos-ring.<REALM>`` and
    :func:`shard_record_name` to route in a sharded realm.  Returns the
    record decoded as the type its name's prefix says, None when Hesiod
    does not know the name."""
    raw = host.rpc(
        IPAddress(hesiod_address), port, HesiodQuery(username=name).to_bytes()
    )
    reply = HesiodReply.from_bytes(raw)
    if not reply.found:
        return None
    record = next(cls for prefix, cls in RECORD_TYPES if name.startswith(prefix))
    return record.from_bytes(reply.entry_bytes)


class HesiodLocator(KdcLocator):
    """KDC discovery through the realm's Hesiod ``_kerberos`` record.

    The list is fetched lazily on first :meth:`locate` and cached —
    Hesiod is unauthenticated and cheap, but a login should not pay a
    directory round-trip per exchange.  :meth:`refresh` drops the cache
    (what a workstation does when its configured KDCs stop answering,
    or when a referral proves the view stale)."""

    def __init__(
        self, host: Host, hesiod_address, realm: str,
        port: int = HESIOD_PORT,
    ) -> None:
        self._host = host
        self._hesiod = IPAddress(hesiod_address)
        self._realm = realm
        self._port = port
        self._cached: List[IPAddress] = []

    def locate(self, routing_key: Optional[str] = None) -> List[IPAddress]:
        if not self._cached:
            # Only an answer is cached: a workstation that asked before
            # the realm published must find the record once it appears.
            found = hesiod_lookup(
                self._host, self._hesiod, KDC_RECORD_PREFIX + self._realm,
                port=self._port,
            )
            if found is not None:
                self._cached = [IPAddress(a) for a in found.addresses]
        return list(self._cached)

    def refresh(self) -> None:
        self._cached = []
