"""A full simulated day at Project Athena — every subsystem interacting.

One long scenario exercising the whole paper at once: morning login
storms, NFS home directories, mail over POP, Zephyr notices, rlogin
between machines, password changes through the KDBM, hourly database
propagation, a midday master crash, attackers probing throughout, and
the evening logout sweep.  Invariants are asserted at each stage.
"""

import pytest

from repro.apps.hesiod import HesiodServer
from repro.apps.nfs import AuthMode, MountDaemon, NfsServer
from repro.apps.nfs.client import NfsClientError
from repro.apps.pop import PopClient, PopServer
from repro.apps.rlogin import RloginServer, rsh
from repro.apps.workstation import AthenaWorkstation
from repro.apps.zephyr import ZephyrClient, ZephyrServer
from repro.core import KerberosError
from repro.kdbm import KdbmClient
from repro.netsim import Network, Unreachable
from repro.principal import Principal
from repro.realm import Realm, RealmTopology
from repro.threat import Eavesdropper, steal_credentials, use_stolen_credential
from repro.user import kpasswd

REALM = "ATHENA.MIT.EDU"
USERS = [("jis", "jis-pw", 1001), ("bcn", "bcn-pw", 1002),
         ("treese", "tr-pw", 1003), ("raeburn", "ra-pw", 1004)]


@pytest.fixture(scope="module")
def athena():
    net = Network()
    realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=2))
    realm.add_admin("jis", "jis-admin-pw")
    for name, pw, _ in USERS:
        realm.add_user(name, pw)
    realm.schedule_propagation()
    realm.propagate()

    hesiod_host = net.add_host("hesiod")
    hesiod = HesiodServer().attach(hesiod_host)

    fs_host = net.add_host("helios")
    nfs_service, _ = realm.add_service("nfs", "helios")
    mount_service, _ = realm.add_service("mountd", "helios")
    fs_srvtab = realm.srvtab_for(nfs_service, mount_service)
    nfs = NfsServer(mode=AuthMode.MAPPED, service=nfs_service,
                    srvtab=fs_srvtab).attach(fs_host)
    MountDaemon(nfs, mount_service, fs_srvtab).attach(fs_host)
    for name, _, uid in USERS:
        nfs.passwd.add(name, uid, [100])
        nfs.fs.install_home(name, uid, 100)
        hesiod.add_user(name, uid, [100], "helios", f"/u/{name}")

    pop_host = net.add_host("po10")
    pop_service, _ = realm.add_service("pop", "po10")
    pop = PopServer(pop_service, realm.srvtab_for(pop_service)).attach(pop_host)

    z_host = net.add_host("zephyrhost")
    z_service, _ = realm.add_service("zephyr", "zephyrhost")
    zephyr = ZephyrServer(z_service, realm.srvtab_for(z_service)).attach(z_host)

    priam = net.add_host("priam")
    rcmd_service, _ = realm.add_service("rcmd", "priam")
    rlogind = RloginServer(rcmd_service, realm.srvtab_for(rcmd_service)).attach(priam)
    for name, _, _ in USERS:
        rlogind.add_account(name)

    eve = Eavesdropper(net)  # watching all day

    return dict(
        net=net, realm=realm, hesiod_host=hesiod_host, fs_host=fs_host,
        nfs=nfs, mount_service=mount_service, pop=pop,
        pop_service=pop_service, pop_host=pop_host,
        zephyr_service=z_service, zephyr_host=z_host,
        rcmd_service=rcmd_service, priam=priam, rlogind=rlogind, eve=eve,
        workstations={},
    )


def athena_ws(athena, name):
    ws = athena["realm"].workstation()
    return AthenaWorkstation(
        ws.host, ws.client, athena["hesiod_host"].address,
        {"helios": athena["fs_host"].address},
        {"helios": athena["mount_service"]},
    )


@pytest.mark.usefixtures("athena")
class TestADayAtAthena:
    def test_0800_morning_logins(self, athena):
        for name, pw, _ in USERS:
            station = athena_ws(athena, name)
            home = station.login(name, pw)
            home.nfs.create(f"/u/{name}/morning-notes")
            home.nfs.write(f"/u/{name}/morning-notes",
                           f"{name} was here".encode())
            athena["workstations"][name] = station
        assert len(athena["nfs"].credmap) == len(USERS)

    def test_0900_mail_and_notices(self, athena):
        athena["pop"].deliver("jis", b"Subject: staff meeting\r\n\r\n10am")
        jis_ws = athena["workstations"]["jis"]
        pop = PopClient(jis_ws.krb, athena["pop_service"],
                        athena["pop_host"].address)
        assert pop.stat() == 1
        assert b"staff meeting" in pop.retrieve(1)
        pop.quit()

        z_jis = ZephyrClient(jis_ws.krb, athena["zephyr_service"],
                             athena["zephyr_host"].address)
        z_jis.zwrite("bcn", "lunch at walker?")
        bcn_ws = athena["workstations"]["bcn"]
        z_bcn = ZephyrClient(bcn_ws.krb, athena["zephyr_service"],
                             athena["zephyr_host"].address)
        notices = z_bcn.poll()
        assert len(notices) == 1
        assert notices[0].sender == f"jis@{REALM}"
        z_jis.close()
        z_bcn.close()

    def test_1000_rlogin_between_machines(self, athena):
        treese = athena["workstations"]["treese"]
        output = rsh(treese.krb, athena["rcmd_service"],
                     athena["priam"].address, "make world")
        assert "make world" in output
        assert athena["rlogind"].kerberos_logins >= 1

    def test_1100_password_change(self, athena):
        raeburn = athena["workstations"]["raeburn"]
        kdbm = KdbmClient(raeburn.krb, athena["realm"].master_host.address)
        out = kpasswd(kdbm, "raeburn", "ra-pw", "ra-new-pw")
        assert "Password changed" in out

    def test_1200_hourly_propagation_carries_the_change(self, athena):
        athena["net"].clock.advance(3600.0)
        from repro.crypto import string_to_key

        for slave in athena["realm"].slaves:
            assert slave.db.principal_key(
                Principal("raeburn", "", REALM)
            ) == string_to_key("ra-new-pw")

    def test_1300_master_crash(self, athena):
        net, realm = athena["net"], athena["realm"]
        net.set_down(realm.master_host.name)
        # Fresh logins still work (slaves), admin doesn't.
        station = athena_ws(athena, "relogin")
        home = station.login("raeburn", "ra-new-pw")
        assert home is not None
        kdbm = KdbmClient(station.krb, realm.master_host.address)
        with pytest.raises(Unreachable):
            kdbm.change_password(Principal("raeburn", "", REALM),
                                 "ra-new-pw", "x")
        station.logout()
        net.set_up(realm.master_host.name)

    def test_1400_attacker_probes(self, athena):
        net = athena["net"]
        jis_ws = athena["workstations"]["jis"]
        thief = net.add_host("thief-box")
        loot = steal_credentials(jis_ws.krb)
        assert loot  # jis has tickets to steal
        from repro.core import krb_rd_req

        mount_cred = [s for s in loot if "mountd" in str(s.credential.service)]
        target = mount_cred[0] if mount_cred else loot[0]
        service = target.credential.service
        key = athena["realm"].service_key(service) if str(service) in \
            athena["realm"]._service_keys else None
        if key is not None:
            with pytest.raises(KerberosError):
                krb_rd_req(
                    use_stolen_credential(target, thief),
                    service, key, thief.address, net.clock.now(),
                )

    def test_1700_logout_sweep(self, athena):
        for name in list(athena["workstations"]):
            station = athena["workstations"].pop(name)
            station.logout()
        assert len(athena["nfs"].credmap) == 0

    def test_1800_after_hours_forgery_fails(self, athena):
        from repro.apps.nfs.client import NfsClient

        ws_host = athena["net"].add_host("night-prowler")
        probe = NfsClient(ws_host, athena["fs_host"].address, uid_on_client=1001)
        with pytest.raises(NfsClientError):
            probe.read("/u/jis/morning-notes")

    def test_2359_the_wiretap_learned_nothing(self, athena):
        eve = athena["eve"]
        assert len(eve.captured) > 100  # a whole day of traffic
        from repro.crypto import string_to_key

        for name, pw, _ in USERS:
            assert not eve.saw_bytes(pw.encode())
            assert not eve.saw_bytes(string_to_key(pw).key_bytes)
        assert not eve.saw_bytes(b"ra-new-pw")
        # Mail content travelled PRIVATE.
        assert not eve.saw_bytes(b"staff meeting")
        # NFS file data is the accepted cleartext (level-1 protection).
        assert eve.saw_bytes(b"jis was here")
