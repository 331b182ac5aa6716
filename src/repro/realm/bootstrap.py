"""Realm assembly (the Section 6.3 administrator's checklist, automated).

*"The Kerberos administrator's job begins with running a program to
initialize the database.  Another program must be run to register
essential principals ...  The Kerberos authentication server and the
administration server must be started up.  If there are slave databases,
the administrator must arrange that the programs to propagate database
updates from master to slaves be kicked off periodically."*

:class:`Realm` performs exactly those steps against a simulated network
and exposes the running parts for tests, examples, and benchmarks.

Topology is declarative: a :class:`RealmTopology` names how many
**shards** partition the principal database, how many slaves each shard
runs, and how each KDC's work queue is sized.  A realm has one shape
whatever that count: a consistent-hash ring
(:mod:`repro.realm.sharding`), one segment per shard for a one-shard
realm, and per shard a full master+slaves group — its own journal
epoch, its own KDBM, its own kprop fan-out, its own range receiver.
The shard-0 group *is* the classic realm (same host names, same epoch)
and holds the realm-wide records; every part of every group is reached
through ``realm.shards[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.applib import SrvTab
from repro.core.client import KerberosClient
from repro.core.crossrealm import link_realms
from repro.core.kdc import KerberosServer
from repro.core.locator import StaticLocator
from repro.crypto import DesKey, KeyGenerator
from repro.database.acl import AccessControlList
from repro.database.admin_tools import (
    ext_srvtab,
    kdb_init,
    register_essential_admin,
    register_service,
)
from repro.database.db import MASTER_VERIFY_KEY, KerberosDatabase
from repro.database.journal import default_epoch
from repro.database.schema import DEFAULT_MAX_LIFE
from repro.kdbm.server import KdbmServer
from repro.netsim import Host, IPAddress, Network
from repro.netsim.clock import HOUR
from repro.principal import Principal
from repro.realm.sharding import (
    HashRing,
    LocalRingSource,
    ShardedLocator,
    ShardMembership,
)
from repro.replication.kprop import Kprop, PropagationResult
from repro.replication.kpropd import Kpropd
from repro.replication.receiver import RangeReceiver


@dataclass
class RealmTopology:
    """Declarative realm shape: what to build, not how to build it.

    ``shards=1`` (the default) is the classic paper realm; more shards
    partition the principal database by name hash, each shard a full
    master+slaves group.  Either way the realm is built on a ring.
    """

    shards: int = 1
    slaves_per_shard: int = 0
    #: :class:`~repro.runtime.WorkQueueConfig` applied to every KDC in
    #: the realm (masters and slaves); with None a request is answered
    #: at arrival as a batch of one, zero service time.
    kdc_queue: Optional[object] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("a realm needs at least one shard")
        if self.slaves_per_shard < 0:
            raise ValueError("slaves_per_shard must be non-negative")


@dataclass
class SlaveSite:
    """One slave machine: read-only DB copy + auth server + kpropd."""

    host: Host
    db: KerberosDatabase
    kdc: KerberosServer
    kpropd: Kpropd


@dataclass
class ShardSite:
    """One shard's master+slaves group: the unit promotion, propagation
    and rebalancing operate on.  Shard 0 of a one-shard realm is the
    classic paper realm."""

    id: int
    master_host: Host
    db: KerberosDatabase
    kdc: KerberosServer
    kdbm: KdbmServer
    kprop: Kprop
    #: Which hash points this shard serves; shared by all its KDCs.
    membership: ShardMembership
    #: The shard master's port for ranges moved into the shard.
    receiver: RangeReceiver
    slaves: List[SlaveSite] = field(default_factory=list)
    #: Bumped on slave promotion so the new master's journal starts a
    #: fresh epoch (slaves then take a full dump, never mistaking the
    #: new history for the old one).
    generation: int = 0


@dataclass
class Workstation:
    """A user-controlled machine with its Kerberos client library."""

    host: Host
    client: KerberosClient


class Realm:
    """A running Kerberos realm: sharded principal database (one shard
    in the classic configuration), per-shard masters and slaves, KDBM,
    kprop."""

    def __init__(
        self,
        net: Network,
        name: str,
        master_password: str = "master-password",
        seed: bytes = b"realm-seed",
        host_prefix: Optional[str] = None,
        topology: Optional[RealmTopology] = None,
    ) -> None:
        self.net = net
        self.name = name
        prefix = host_prefix if host_prefix is not None else name.split(".")[0].lower()
        self._prefix = prefix
        if topology is None:
            topology = RealmTopology()
        self.topology = topology
        self.keygen = KeyGenerator(seed=seed + name.encode())

        self.acl = AccessControlList()
        self.shards: List[ShardSite] = []
        #: The live ring: memberships reference it, locators snapshot it.
        self.ring = HashRing.seeded(name, topology.shards)
        #: Keys replicated to *every* shard (K.M, krbtgt, kdbm, admins,
        #: services, inter-realm keys) — rebalancing never moves them.
        self._global_keys: set = set()

        for sid in range(topology.shards):
            self._build_shard(sid, master_password)
        realm = {"realm": name}
        #: Journal entries a range move streams (see ``sharding.move_range``).
        self.rebalanced = net.metrics.family(
            "counter", "shard.rebalance_entries_total", (), realm
        )
        self._ring_epoch = net.metrics.family("gauge", "shard.ring_epoch", (), realm)[()]
        self._ring_epoch.set(self.ring.epoch)

        self._service_keys: Dict[str, DesKey] = {}
        self._ws_count = 0
        #: Every workstation built via :meth:`workstation`, so discovery
        #: re-pointing after a promotion can reach all of them.
        self.workstations: List[Workstation] = []
        #: Optional Hesiod server publishing this realm's discovery
        #: records (see :meth:`attach_hesiod`); republished on
        #: :meth:`repoint_clients` and ring changes.
        self.hesiod = None

    # -- shard construction -------------------------------------------------------

    def _shard_host_name(self, sid: int, slave: Optional[int] = None) -> str:
        """Shard 0 keeps the classic names (``<prefix>-kerberos``,
        ``<prefix>-kerberos-1`` ...); further shards append ``-s<id>``."""
        base = (
            f"{self._prefix}-kerberos"
            if sid == 0
            else f"{self._prefix}-kerberos-s{sid}"
        )
        return base if slave is None else f"{base}-{slave}"

    def _shard_epoch_name(self, sid: int) -> str:
        """The realm name a shard's journal epoch derives from — shard 0
        keeps the realm's own (classic) epoch."""
        return self.name if sid == 0 else f"{self.name}/shard{sid}"

    def _build_shard(self, sid: int, master_password: str) -> ShardSite:
        if sid == 0:
            # Shard 0 runs kdb_init: it draws the realm's krbtgt and
            # kdbm keys from the keygen.
            db = kdb_init(
                self.name, master_password, self.keygen,
                now=self.net.clock.now(),
            )
            # Everything kdb_init created is realm-wide state (K.M,
            # krbtgt, the kdbm principal) — global, never rebalanced.
            self._global_keys.update(db.store.keys())
            keygen_fork = b"kdc-master"
        else:
            # Further shards must NOT re-run kdb_init (it would draw
            # *different* krbtgt/kdbm keys, breaking cross-shard TGT
            # validation); they share shard 0's master key and copy its
            # realm-wide records.
            shard0 = self.shards[0].db
            db = KerberosDatabase(
                self.name,
                shard0.master_key,
                journal_epoch=default_epoch(self._shard_epoch_name(sid)),
            )
            now = self.net.clock.now()
            for key in sorted(self._global_keys):
                if key == MASTER_VERIFY_KEY:
                    continue
                db.import_record(key, shard0.store.get(key), now=now)
            keygen_fork = f"kdc-shard{sid}".encode()

        master_host = self.net.add_host(self._shard_host_name(sid))
        membership = ShardMembership(sid, self)
        kdc = KerberosServer(
            db,
            self.keygen.fork(keygen_fork),
            queue=self.topology.kdc_queue,
            shard=membership,
        ).attach(master_host)
        kdbm = KdbmServer(db, self.acl).attach(master_host)
        site = ShardSite(
            id=sid,
            master_host=master_host,
            db=db,
            kdc=kdc,
            kdbm=kdbm,
            kprop=Kprop(db, master_host, slave_addresses=[]),
            membership=membership,
            receiver=RangeReceiver(db, membership).attach(master_host),
        )
        self.shards.append(site)
        for i in range(self.topology.slaves_per_shard):
            self.add_slave(self._shard_host_name(sid, i + 1), shard=sid)
        if site.slaves:
            site.kprop.propagate()  # initial full dump to all slaves
        return site

    # -- topology ---------------------------------------------------------------

    def add_slave(self, hostname: str, shard: int = 0) -> SlaveSite:
        site = self.shards[shard]
        host = self.net.add_host(hostname)
        slave_db = site.db.replica()
        kdc = KerberosServer(
            slave_db,
            self.keygen.fork(hostname.encode()),
            queue=self.topology.kdc_queue,
            shard=site.membership,
        ).attach(host)
        kpropd = Kpropd(slave_db).attach(host)
        slave = SlaveSite(host=host, db=slave_db, kdc=kdc, kpropd=kpropd)
        site.slaves.append(slave)
        site.kprop.add_slave(host.address)
        return slave

    def shard_addresses(self, shard: int = 0) -> List[IPAddress]:
        """One shard's KDC list: its master first, then its slaves."""
        site = self.shards[shard]
        return [site.master_host.address] + [
            s.host.address for s in site.slaves
        ]

    def kdc_addresses(self) -> List[IPAddress]:
        """Every KDC in the realm, shard by shard, each shard's master
        first — the list a static-locator client fails over along (with
        several shards, the referral path corrects its routing)."""
        addresses: List[IPAddress] = []
        for site in self.shards:
            addresses.extend(self.shard_addresses(site.id))
        return addresses

    def locator(self) -> ShardedLocator:
        """A fresh locator answering this realm's current topology: a
        :class:`~repro.realm.sharding.ShardedLocator` over the live
        ring."""
        return ShardedLocator(LocalRingSource(self))

    def workstation(
        self,
        hostname: Optional[str] = None,
        clock_skew: float = 0.0,
        retry_policy=None,
    ) -> Workstation:
        """A public workstation with the client library configured.  The
        client gets a :meth:`locator` for this realm — each principal's
        shard, master first — so it fails over exactly as Figure 10
        prescribes; pass a :class:`repro.core.retry.RetryPolicy` to
        shape retransmission (deadline, backoff) under injected
        faults."""
        if hostname is None:
            self._ws_count += 1
            hostname = f"ws{self._ws_count}"
        host = self.net.add_host(hostname, clock_skew=clock_skew)
        client = KerberosClient(
            host, self.name, locator=self.locator(),
            retry_policy=retry_policy,
        )
        ws = Workstation(host=host, client=client)
        self.workstations.append(ws)
        return ws

    # -- registration (the administrator's ongoing job) ----------------------------

    def shard_for_key(self, db_key: str) -> int:
        """Which shard owns a principal database key (realm-wide keys
        live on shard 0)."""
        if db_key in self._global_keys:
            return 0
        return self.ring.shard_for(db_key)

    def db_for_key(self, db_key: str) -> KerberosDatabase:
        return self.shards[self.shard_for_key(db_key)].db

    def is_global_key(self, key: str) -> bool:
        """Replicated-everywhere keys: excluded from rebalancing."""
        return key == MASTER_VERIFY_KEY or key in self._global_keys

    def _adopt_globals(self, keys: Iterable[str]) -> None:
        """Mark keys realm-wide and copy their (shard-0) records to
        every other shard."""
        keys = [k for k in keys if k != MASTER_VERIFY_KEY]
        self._global_keys.update(keys)
        now = self.net.clock.now()
        shard0 = self.shards[0].db
        for site in self.shards[1:]:
            for key in keys:
                raw = shard0.store.get(key)
                if raw is not None:
                    site.db.import_record(key, raw, now=now)

    def add_user(
        self,
        username: str,
        password: str,
        instance: str = "",
        max_life: float = DEFAULT_MAX_LIFE,
    ) -> Principal:
        """Register a user on the shard its name hashes to."""
        principal = Principal(username, instance, self.name)
        self.db_for_key(principal.db_key()).add_principal(
            principal,
            password=password,
            now=self.net.clock.now(),
            max_life=max_life,
        )
        return principal

    def add_admin(self, username: str, admin_password: str) -> Principal:
        """Admins are realm-wide: registered on shard 0, replicated to
        every shard (any shard's KDBM must be able to verify them)."""
        principal = register_essential_admin(
            self.shards[0].db, self.acl, username, admin_password,
            now=self.net.clock.now(),
        )
        self._adopt_globals([principal.db_key()])
        return principal

    def add_service(
        self,
        name: str,
        instance: str,
        max_life: float = DEFAULT_MAX_LIFE,
    ) -> Tuple[Principal, DesKey]:
        """Register a service with a random key (Section 6.3) and keep the
        key for srvtab extraction.  Service records are realm-wide: a TGS
        request can land on any shard, so every shard must hold the
        service key."""
        service = Principal(name, instance, self.name)
        key = register_service(
            self.shards[0].db, service, self.keygen,
            now=self.net.clock.now(), max_life=max_life,
        )
        self._service_keys[str(service)] = key
        self._adopt_globals([service.db_key()])
        return service, key

    def srvtab_for(self, *services: Principal) -> SrvTab:
        """Extract and parse the srvtab a server machine would install."""
        return SrvTab.from_bytes(ext_srvtab(self.shards[0].db, list(services)))

    def rotate_service_key(
        self, service: Principal, srvtab: Optional[SrvTab] = None
    ) -> DesKey:
        """Change a service's key (new kvno) and, if its srvtab is given,
        install the new version alongside the old ones — so tickets
        sealed under previous keys keep working until they expire."""
        new_key = self.keygen.session_key()
        record = self.shards[0].db.change_key(
            service, new_key=new_key, now=self.net.clock.now(),
            mod_by="ksrvutil",
        )
        self._service_keys[str(service)] = new_key
        self._adopt_globals([service.db_key()])
        if srvtab is not None:
            srvtab.install(service, record.key_version, new_key)
        return new_key

    def service_key(self, service: Principal) -> DesKey:
        return self._service_keys[str(service)]

    # -- operations ------------------------------------------------------------------

    def propagate(self, full: bool = False) -> PropagationResult:
        """Run one kprop round on every shard that has slaves: deltas
        where the journal can supply them, full Figure 13 dumps
        otherwise (``full=True`` forces full dumps everywhere).

        The rounds read as one result at any shard count: counts summed,
        per-slave modes and failures merged, the first round's time."""
        rounds = [
            site.kprop.propagate(full=full)
            for site in self.shards
            if site.slaves
        ]
        merged = PropagationResult(
            time=rounds[0].time if rounds else self.net.clock.now(),
            attempted=sum(r.attempted for r in rounds),
            succeeded=sum(r.succeeded for r in rounds),
        )
        for r in rounds:
            merged.failures.update(r.failures)
            merged.modes.update(r.modes)
        return merged

    def promote_slave(
        self, index: int = 0, demote_old: bool = False, shard: int = 0
    ) -> SlaveSite:
        """Disaster recovery: turn one shard's slave into that shard's
        new master.

        The procedure an Athena administrator would run after losing a
        master machine for good: take the slave's (propagated) database
        copy, open it read-write with the master key — which every
        Kerberos machine possesses (Section 5.3) — and start the
        write-side services (KDBM, kprop, the range receiver) on that
        host.  The old master, if it ever
        returns, must be rebuilt as a slave.

        With ``demote_old=True`` (what the realm supervisor passes) the
        rebuild happens now: the old master's KDBM retires, its KDC is
        re-pointed at an empty read-only replica of the new master's
        database, and a fresh kpropd joins the propagation set — so when
        the machine restarts it answers the first delta with NEED_FULL
        and catches up through the ordinary full-dump-then-deltas path,
        with no second epoch conflict.

        Promotion is **shard-scoped**: only this shard's bindings and
        its KDC list change; every other shard's clients and records
        are untouched.

        Returns the promoted site; the shard's
        ``master_host``/``kdbm``/``kprop`` are repointed.  Clients keep
        working throughout: their failover lists already include the
        promoted host.
        """
        site = self.shards[shard]
        old_master_host = site.master_host
        old_kdc = site.kdc
        old_kdbm = site.kdbm
        promoted = site.slaves.pop(index)
        # Reopen the slave's store read-write under the same master key.
        # The promoted journal starts a new epoch: its sequence numbers
        # are not a continuation of the lost master's.
        site.generation += 1
        promoted_db = KerberosDatabase(
            self.name,
            site.db.master_key,
            store=promoted.db.store,
            journal_epoch=default_epoch(
                self._shard_epoch_name(shard), site.generation
            ),
        )
        promoted.kdc.db = promoted_db
        # The write-side services move to the new master.
        promoted.kpropd.detach()  # kpropd retires; this host now sends dumps
        site.db = promoted_db
        site.master_host = promoted.host
        site.kdc = promoted.kdc
        site.kdbm = KdbmServer(promoted_db, self.acl).attach(promoted.host)
        site.kprop = Kprop(
            promoted_db, promoted.host,
            slave_addresses=[s.host.address for s in site.slaves],
        )
        if site.receiver.attached:
            site.receiver.detach()
        site.receiver = RangeReceiver(
            promoted_db, site.membership
        ).attach(promoted.host)
        if demote_old:
            self._demote_to_slave(site, old_master_host, old_kdc, old_kdbm)
        return promoted

    def _demote_to_slave(
        self, site: ShardSite, host: Host, kdc, kdbm
    ) -> SlaveSite:
        """Rebuild the (usually dead) old master as a slave of its
        shard's new one.  Bindings are mutable while a host is down, so
        this runs at promotion time; the machine comes back already
        wearing its new role and catches up via NEED_FULL → full dump →
        deltas."""
        if kdbm.attached:
            kdbm.detach()  # writes only ever land on the current master
        replica = site.db.replica()
        kdc.db = replica
        kpropd = Kpropd(replica).attach(host)
        slave = SlaveSite(host=host, db=replica, kdc=kdc, kpropd=kpropd)
        site.slaves.append(slave)
        site.kprop.add_slave(host.address)
        return slave

    # -- discovery --------------------------------------------------------------------

    def repoint_clients(self, shard: Optional[int] = None) -> None:
        """Push the current KDC topology to every workstation this realm
        built, and republish through Hesiod if attached — the discovery
        update that makes ``run_with_failover`` find a new master after
        a promotion.

        Pass ``shard`` to scope the update: only that shard's Hesiod
        record is rewritten (the ring did not change).  A ring locator
        only drops its view here and fetches a new one on its next
        ``locate``, so nothing in this call touches the network — a
        promotion completes even while Hesiod is unreachable.
        """
        for ws in self.workstations:
            locator = ws.client.locator_for(self.name)
            if isinstance(locator, StaticLocator):
                locator.set_addresses(self.kdc_addresses())
            else:
                locator.refresh()
        if self.hesiod is not None:
            self._publish_hesiod(shard=shard)

    def attach_hesiod(self, hesiod) -> None:
        """Register a :class:`~repro.apps.hesiod.HesiodServer` as this
        realm's discovery channel and publish the current records: the
        ring descriptor plus one KDC list per shard."""
        self.hesiod = hesiod
        self._publish_hesiod()

    def _publish_hesiod(self, shard: Optional[int] = None) -> None:
        self.hesiod.store_ring(self.ring.to_record(self.name))
        targets = self.shards if shard is None else [self.shards[shard]]
        for site in targets:
            self.hesiod.store_shard_kdc_list(
                self.name, site.id, self.shard_addresses(site.id)
            )

    def republish_ring(self) -> None:
        """Set ``shard.ring_epoch`` and push the current ring + shard
        records to Hesiod (after a ring change, e.g. a completed
        ``move_range``).  The push is a no-op without an attached
        Hesiod — local locators read the realm directly."""
        self._ring_epoch.set(self.ring.epoch)
        if self.hesiod is not None:
            self._publish_hesiod()

    # -- propagation cadence -----------------------------------------------------------

    def schedule_propagation(self, interval: Optional[float] = None) -> None:
        """The paper's cadence: periodic full dumps (hourly by default).

        Scheduled against the shards' current kprops *at fire time*, so
        a cadence installed before a promotion keeps driving whichever
        kprop is current — not the dead master's."""
        period = HOUR if interval is None else interval
        self.net.runtime.every(
            period, lambda: self.propagate(full=True), label="realm.propagate"
        )

    def schedule_incremental(self, interval: float = 30.0) -> None:
        """The fast cadence: delta rounds every ``interval`` seconds,
        alongside (not instead of) the hourly full dump.  Resolves the
        current kprops at fire time, like :meth:`schedule_propagation`."""
        self.net.runtime.every(
            interval, self.propagate, label="realm.propagate_delta"
        )


def link(realm_a: Realm, realm_b: Realm, now: Optional[float] = None) -> DesKey:
    """Exchange an inter-realm key between two realms (Section 7.2) and
    re-propagate so slaves learn it too.  Inter-realm keys are
    realm-wide state: every shard's TGS must be able to unseal
    remote-realm TGTs, so the new records replicate to all shards."""
    db_a, db_b = realm_a.shards[0].db, realm_b.shards[0].db
    before_a = set(db_a.store.keys())
    before_b = set(db_b.store.keys())
    key = link_realms(
        db_a,
        db_b,
        realm_a.keygen.fork(b"interrealm" + realm_b.name.encode()),
        now=now if now is not None else realm_a.net.clock.now(),
    )
    realm_a._adopt_globals(set(db_a.store.keys()) - before_a)
    realm_b._adopt_globals(set(db_b.store.keys()) - before_b)
    realm_a.propagate()
    realm_b.propagate()
    return key
