"""Fleet bootstrap for the appendix's Kerberized NFS (the fleet PR).

The appendix measures one fileserver; Athena ran racks of them.
:class:`NfsFleet` stands up N ``NfsServer``/``MountDaemon`` pairs
against an existing :class:`~repro.realm.bootstrap.Realm` — each pair
on its own host with its own service principals, srvtab, kernel
credential map, and replay cache — all driven by one declarative
:class:`~repro.apps.nfs.config.NfsExportConfig`.

The config is the fleet's operator surface: :meth:`apply_config` pushes
a new document to every server (returning the per-server change lists),
:meth:`snapshot_config`/:meth:`restore_config` round-trip it through a
plain dict, TrueNAS-config-restore style.  User provisioning
(:meth:`add_user`) installs the passwd entry and the 0700 home
directory on every server, the way Athena's account pipeline populated
every fileserver from the same source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.nfs.client import NfsClient
from repro.apps.nfs.config import NfsExportConfig
from repro.apps.nfs.mountd import MountDaemon
from repro.apps.nfs.server import NfsServer
from repro.core.applib import SrvTab
from repro.netsim import Host
from repro.principal import Principal


@dataclass(frozen=True)
class NfsUserSpec:
    """One user to provision across the fleet."""

    username: str
    uid: int
    gids: Tuple[int, ...] = (100,)


@dataclass
class FleetServer:
    """One fileserver pair: host, NFS server, mountd, and identities."""

    index: int
    host: Host
    server: NfsServer
    mountd: MountDaemon
    nfs_service: Principal
    mount_service: Principal
    srvtab: SrvTab

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def address(self):
        return self.host.address


class NfsFleet:
    """N Kerberized fileservers behind one declarative config."""

    def __init__(
        self,
        realm,
        n_servers: int = 2,
        config: Optional[NfsExportConfig] = None,
        name_prefix: str = "nfs",
        users: Sequence[NfsUserSpec] = (),
    ) -> None:
        if n_servers < 1:
            raise ValueError("a fleet needs at least one server")
        self.realm = realm
        self.net = realm.net
        self.config = config if config is not None else NfsExportConfig()
        self.servers: List[FleetServer] = []
        self._users: Dict[str, NfsUserSpec] = {}

        for i in range(n_servers):
            hostname = f"{name_prefix}{i + 1}"
            host = self.net.add_host(hostname)
            nfs_service, _ = realm.add_service("nfs", hostname)
            mount_service, _ = realm.add_service("mountd", hostname)
            # Each machine installs its *own* srvtab — compromising one
            # fileserver's keys must not open its siblings.
            srvtab = realm.srvtab_for(nfs_service, mount_service)
            server = NfsServer(
                config=self.config,
                service=nfs_service,
                srvtab=srvtab,
            ).attach(host)
            mountd = MountDaemon(server, mount_service, srvtab).attach(host)
            self.servers.append(FleetServer(
                index=i,
                host=host,
                server=server,
                mountd=mountd,
                nfs_service=nfs_service,
                mount_service=mount_service,
                srvtab=srvtab,
            ))

        self.net.metrics.family("gauge", "nfs.fleet_servers", ())[()].set(n_servers)
        for spec in users:
            self.add_user(spec)

    def __len__(self) -> int:
        return len(self.servers)

    def __getitem__(self, index: int) -> FleetServer:
        return self.servers[index]

    # -- provisioning ---------------------------------------------------------

    def add_user(self, spec: NfsUserSpec) -> None:
        """Provision one user on every server: passwd entry plus the
        0700 home directory (Athena's account pipeline, fleet-wide)."""
        self._users[spec.username] = spec
        gid = spec.gids[0] if spec.gids else 0
        for site in self.servers:
            site.server.passwd.add(spec.username, spec.uid, spec.gids)
            if not site.server.fs.exists(f"/u/{spec.username}"):
                site.server.fs.install_home(spec.username, spec.uid, gid)

    def user(self, username: str) -> NfsUserSpec:
        return self._users[username]

    # -- the declarative config surface --------------------------------------

    def apply_config(self, config: NfsExportConfig) -> Dict[str, List[str]]:
        """Push one config document to every server; returns the change
        list each server applied (identical fleet-wide by construction,
        but reported per server — that is what an operator audits)."""
        config.validate()
        changes = {
            site.name: site.server.apply_config(config)
            for site in self.servers
        }
        self.config = config
        return changes

    def snapshot_config(self) -> dict:
        """The current config as a plain JSON-able document."""
        return self.config.to_dict()

    def restore_config(self, snapshot: dict) -> Dict[str, List[str]]:
        """Re-apply a previously snapshotted config (config restore)."""
        return self.apply_config(NfsExportConfig.from_dict(snapshot))

    # -- fleet-wide views ------------------------------------------------------

    def total_mappings(self) -> int:
        """Live kernel-map entries across every server."""
        return sum(len(site.server.credmap) for site in self.servers)

    def mappings_by_server(self) -> Dict[str, dict]:
        """Full credential-map snapshot per server — what the
        conformance matrix asserts against."""
        return {
            site.name: site.server.credmap.entries()
            for site in self.servers
        }

    # -- client plumbing ------------------------------------------------------

    def client(
        self,
        ws,
        index: int,
        uid_on_client: int,
        gids: Optional[Sequence[int]] = None,
        retry_policy=None,
    ) -> NfsClient:
        """An :class:`NfsClient` on workstation ``ws`` (a
        :class:`~repro.realm.bootstrap.Workstation` or bare host)
        pointed at fleet server ``index``."""
        host = getattr(ws, "host", ws)
        site = self.servers[index]
        return NfsClient(
            host,
            site.address,
            uid_on_client=uid_on_client,
            gids=list(gids) if gids else None,
            retry_policy=retry_policy,
        )
