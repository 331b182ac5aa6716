"""Fleet lifecycle: bootstrap, config apply/restore, and the churn
semantics — unmount flush, mode-change flush, crash map loss, ticket
expiry mid-I/O, and auto-remount recovery."""

import pytest

from repro.apps.nfs import (
    AuthMode,
    NfsClientError,
    NfsExportConfig,
    STALE_MAPPING,
    UnmappedPolicy,
)
from repro.realm import NfsFleet, NfsUserSpec

from tests.apps.nfs_conformance.conftest import (
    FleetWorld,
    JIS_CRED,
    JIS_UID,
    SECRET,
    TICKET_LIFE,
)

pytestmark = pytest.mark.nfs


def _mounted_client(world, index=0):
    ws = world.login("jis")
    client = world.fleet.client(ws, index, uid_on_client=JIS_UID)
    client.kerberos_mount(ws.client, world.fleet[index].mount_service)
    return ws, client


class TestBootstrap:
    def test_fleet_brings_up_n_isolated_servers(self):
        world = FleetWorld(n_servers=4)
        fleet = world.fleet
        assert len(fleet) == 4
        assert [site.name for site in fleet.servers] == [
            "nfs1", "nfs2", "nfs3", "nfs4",
        ]
        # Distinct hosts, distinct service identities, distinct maps.
        assert len({site.address for site in fleet.servers}) == 4
        assert len({site.nfs_service for site in fleet.servers}) == 4
        assert world.net.metrics.total("nfs.fleet_servers") == 4

    def test_users_provisioned_on_every_server(self):
        world = FleetWorld(n_servers=3)
        for site in world.fleet.servers:
            assert site.server.passwd.credential_for("jis") == JIS_CRED
            assert site.server.fs.exists("/u/jis")

    def test_add_user_after_bootstrap_reaches_all_servers(self):
        world = FleetWorld()
        world.fleet.add_user(NfsUserSpec("don", 1003, (101,)))
        for site in world.fleet.servers:
            cred = site.server.passwd.credential_for("don")
            assert cred is not None and cred.uid == 1003

    def test_srvtabs_are_per_machine(self):
        world = FleetWorld()
        a, b = world.fleet[0], world.fleet[1]
        # One fileserver's srvtab must not hold its sibling's keys.
        assert str(a.nfs_service) in a.srvtab.services()
        assert str(b.nfs_service) not in a.srvtab.services()

    def test_mounts_land_on_the_chosen_server_only(self):
        world = FleetWorld(n_servers=3)
        _ws, _client = _mounted_client(world, index=1)
        by_server = world.fleet.mappings_by_server()
        assert [len(v) for v in by_server.values()] == [0, 1, 0]
        assert world.fleet.total_mappings() == 1


class TestConfigSurface:
    def test_apply_reaches_every_server_with_change_list(self):
        world = FleetWorld(n_servers=3)
        changes = world.fleet.apply_config(
            world.fleet.config.with_policy(UnmappedPolicy.UNFRIENDLY)
        )
        assert set(changes) == {"nfs1", "nfs2", "nfs3"}
        for per_server in changes.values():
            assert per_server == ["unmapped_policy: friendly -> unfriendly"]
        for site in world.fleet.servers:
            assert site.server.unmapped_policy == UnmappedPolicy.UNFRIENDLY

    def test_mode_change_flushes_every_kernel_map(self):
        world = FleetWorld()
        _ws, _client = _mounted_client(world)
        assert world.fleet.total_mappings() == 1
        world.fleet.apply_config(
            world.fleet.config.with_mode(AuthMode.TRUSTED)
        )
        assert world.fleet.total_mappings() == 0

    def test_policy_change_keeps_kernel_maps(self):
        world = FleetWorld()
        _ws, _client = _mounted_client(world)
        world.fleet.apply_config(
            world.fleet.config.with_policy(UnmappedPolicy.UNFRIENDLY)
        )
        assert world.fleet.total_mappings() == 1

    def test_snapshot_restore_round_trip(self):
        world = FleetWorld()
        snapshot = world.fleet.snapshot_config()
        world.fleet.apply_config(
            world.fleet.config.with_mode(AuthMode.UNTRUSTED)
        )
        changes = world.fleet.restore_config(snapshot)
        assert all(
            per_server == ["auth_mode: untrusted -> mapped"]
            for per_server in changes.values()
        )
        assert world.fleet.config == NfsExportConfig()


class TestChurn:
    def test_unmount_flushes_the_mapping(self):
        world = FleetWorld()
        ws, client = _mounted_client(world)
        assert client.read("/u/jis/secret.txt") == SECRET
        assert client.unmount()
        assert world.fleet[0].server.credmap.entries() == {}
        with pytest.raises(NfsClientError):
            client.read("/u/jis/secret.txt")

    def test_expiry_mid_io_forces_remount(self):
        world = FleetWorld()
        ws, client = _mounted_client(world)
        assert client.read("/u/jis/secret.txt") == SECRET
        world.net.runtime.run_for(TICKET_LIFE + 60.0)
        with pytest.raises(NfsClientError, match=STALE_MAPPING):
            client.read("/u/jis/secret.txt")
        # The stale entry was purged by that lookup; a fresh kinit and
        # mount handshake restores service.
        assert world.fleet[0].server.credmap.entries() == {}
        ws.client.kinit("jis", "jis-pw")
        client.kerberos_mount(ws.client, world.fleet[0].mount_service)
        assert client.read("/u/jis/secret.txt") == SECRET

    def test_crash_restart_loses_kernel_map(self):
        world = FleetWorld()
        site = world.fleet[0]
        ws, client = _mounted_client(world)
        world.net.crash_host(site.name, downtime=5.0)
        world.net.runtime.run_for(6.0)
        assert site.server.credmap.entries() == {}
        assert world.net.metrics.total(
            "nfs.map_losses_total", server=site.name
        ) == 1
        # Friendly policy: the unmapped read now squashes to nobody,
        # which cannot traverse the 0700 home — no silent wrong answer.
        with pytest.raises(NfsClientError, match="permission denied"):
            client.read("/u/jis/secret.txt")

    def test_auto_remount_rides_out_crash_restart(self):
        world = FleetWorld()
        site = world.fleet[0]
        ws, client = _mounted_client(world)
        client.enable_auto_remount(ws.client, site.mount_service)
        world.net.crash_host(site.name, downtime=5.0)
        world.net.runtime.run_for(6.0)
        # The retried read re-runs the mountd handshake transparently.
        assert client.read("/u/jis/secret.txt") == SECRET
        assert site.server.credmap.entries() == {
            (str(ws.host.address), JIS_UID): JIS_CRED
        }

    def test_auto_remount_rides_out_expiry_with_fresh_tgt(self):
        world = FleetWorld()
        ws, client = _mounted_client(world)
        client.enable_auto_remount(ws.client, world.fleet[0].mount_service)
        world.net.runtime.run_for(TICKET_LIFE + 60.0)
        ws.client.kinit("jis", "jis-pw")
        assert client.read("/u/jis/secret.txt") == SECRET

    def test_stale_mapping_is_counted(self):
        world = FleetWorld()
        site = world.fleet[0]
        _ws, client = _mounted_client(world)
        world.net.runtime.run_for(TICKET_LIFE + 60.0)
        with pytest.raises(NfsClientError):
            client.read("/motd")
        assert world.net.metrics.total(
            "nfs.stale_mappings_total", server=site.name
        ) == 1
