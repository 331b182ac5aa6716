"""Persistence and restart: the realm survives its machines rebooting.

The Kerberos machines keep their state in files — the database (ndbm in
the paper, our FileStore), the master-key stash, the ACL file, and each
server's srvtab.  A reboot reconstructs everything from disk, and
credentials issued before the restart keep working (the keys didn't
change, only the process).
"""

import pytest

from repro.core import (
    KerberosClient,
    KerberosServer,
    Principal,
    SrvTab,
    StaticLocator,
    krb_rd_req,
    tgs_principal,
)
from repro.crypto import KeyGenerator
from repro.database import (
    AccessControlList,
    FileStore,
    KerberosDatabase,
    MasterKey,
)
from repro.database.admin_tools import ext_srvtab, kdb_init, register_service
from repro.netsim import Network

REALM = "ATHENA.MIT.EDU"


class TestColdStart:
    def test_full_realm_from_files(self, tmp_path):
        """Build a realm on disk, tear down every process, restart from
        the files alone, and verify an old ticket still authenticates."""
        db_path = str(tmp_path / "principal.db")
        stash_path = str(tmp_path / ".k")
        acl_path = str(tmp_path / "kerberos.acl")
        srvtab_path = str(tmp_path / "srvtab")

        # --- first boot: initialize everything onto disk --------------
        gen = KeyGenerator(seed=b"persist")
        db = kdb_init(REALM, "master-pw", gen, store=FileStore(db_path))
        db.master_key.stash(stash_path)
        db.add_principal(Principal("jis", "", REALM), password="jis-pw")
        service = Principal("rlogin", "priam", REALM)
        register_service(db, service, gen)
        with open(srvtab_path, "wb") as f:
            f.write(ext_srvtab(db, [service]))
        acl = AccessControlList([Principal("jis", "admin", REALM)])
        acl.save(acl_path)

        net = Network()
        kdc_host = net.add_host("kerberos")
        KerberosServer(db, gen.fork(b"kdc1")).attach(kdc_host)
        ws = net.add_host("ws")
        client = KerberosClient(ws, REALM, StaticLocator([kdc_host.address]))
        client.kinit("jis", "jis-pw")
        pre_restart_cred = client.get_credential(service)

        # --- the machine reboots: all processes gone ------------------
        net.set_down("kerberos")
        kdc_host.unbind(750)

        # --- second boot: reconstruct purely from the files ------------
        master2 = MasterKey.load_stash(stash_path)
        db2 = KerberosDatabase(REALM, master2, store=FileStore(db_path))
        acl2 = AccessControlList.load(acl_path)
        srvtab2 = SrvTab.from_bytes(open(srvtab_path, "rb").read())
        net.set_up("kerberos")
        KerberosServer(db2, gen.fork(b"kdc2")).attach(kdc_host)

        assert db2.exists(Principal("jis", "", REALM))
        assert acl2.check(Principal("jis", "admin", REALM))

        # Old credentials still work: same service key on disk.
        from repro.core.applib import krb_mk_req

        request = krb_mk_req(
            ticket_blob=pre_restart_cred.ticket,
            session_key=pre_restart_cred.session_key,
            client=Principal("jis", "", REALM),
            client_address=ws.address,
            now=ws.clock.now(),
            kvno=pre_restart_cred.kvno,
        )
        ctx = krb_rd_req(request, service, srvtab2, ws.address, net.clock.now())
        assert ctx.client.name == "jis"

        # And new logins against the restarted KDC work too.
        client2 = KerberosClient(ws, REALM, StaticLocator([kdc_host.address]))
        assert client2.kinit("jis", "jis-pw") is not None

    def test_wrong_stash_refuses_database(self, tmp_path):
        gen = KeyGenerator(seed=b"persist2")
        db_path = str(tmp_path / "principal.db")
        db = kdb_init(REALM, "master-pw", gen, store=FileStore(db_path))
        db.add_principal(Principal("jis", "", REALM), password="x")

        from repro.database import DatabaseError

        with pytest.raises(DatabaseError):
            KerberosDatabase(
                REALM,
                MasterKey.from_password("not-the-master"),
                store=FileStore(db_path),
            )

    def test_slave_dump_to_file_and_back(self, tmp_path):
        """Backups (kdb_util) round-trip through the filesystem."""
        from repro.database.admin_tools import kdb_util_dump, kdb_util_load

        gen = KeyGenerator(seed=b"persist3")
        db = kdb_init(REALM, "master-pw", gen)
        db.add_principal(Principal("jis", "", REALM), password="pw")
        backup = str(tmp_path / "backup.kdb")
        kdb_util_dump(db, backup, now=42.0)

        restored = KerberosDatabase(
            REALM, MasterKey.from_password("master-pw"),
            store=FileStore(str(tmp_path / "restored.db")),
        )
        count = kdb_util_load(restored, backup)
        assert count == len(db.store)
        assert restored.principal_key(
            Principal("jis", "", REALM)
        ) == db.principal_key(Principal("jis", "", REALM))
        # And the restore persisted to ITS file store.
        reopened = KerberosDatabase(
            REALM, MasterKey.from_password("master-pw"),
            store=FileStore(str(tmp_path / "restored.db")),
        )
        assert reopened.exists(Principal("jis", "", REALM))
