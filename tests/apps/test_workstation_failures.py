"""Workstation login failure handling: partial failures leave no residue."""

import pytest

from repro.apps.nfs.client import NfsClientError
from repro.user.login import LoginError

from tests.apps.conftest import REALM


class TestLoginFailureCleanup:
    def test_fileserver_down_aborts_login_cleanly(self, world):
        """If the home directory cannot be mounted, the login fails and —
        crucially — no tickets are left behind on the public
        workstation."""
        world.net.set_down("fs1")
        aws = world.athena_workstation()
        with pytest.raises(Exception):
            aws.login("jis", "jis-pw")
        assert aws.current_user is None
        assert aws.session.client.klist() == []
        world.net.set_up("fs1")

    def test_hesiod_down_aborts_login_cleanly(self, world):
        world.net.set_down("hesiod")
        aws = world.athena_workstation()
        with pytest.raises(Exception):
            aws.login("jis", "jis-pw")
        assert aws.current_user is None
        assert aws.session.client.klist() == []
        world.net.set_up("hesiod")

    def test_login_succeeds_after_transient_failure(self, world):
        world.net.set_down("fs1")
        aws = world.athena_workstation()
        with pytest.raises(Exception):
            aws.login("jis", "jis-pw")
        world.net.set_up("fs1")
        home = aws.login("jis", "jis-pw")
        assert home.home_path == "/u/jis"
        aws.logout()

    def test_kdc_down_is_a_login_error(self, world):
        world.net.set_down(world.realm.shards[0].master_host.name)
        aws = world.athena_workstation()
        with pytest.raises(LoginError):
            aws.login("jis", "jis-pw")
        world.net.set_up(world.realm.shards[0].master_host.name)

    def test_no_local_account_on_fileserver(self, world):
        """Kerberos and Hesiod know the user, but the fileserver's passwd
        map does not: the mount is refused."""
        world.realm.add_user("stranger", "pw")
        world.hesiod.add_user("stranger", 1099, [100], "fs1", "/u/stranger")
        aws = world.athena_workstation()
        with pytest.raises(Exception, match="no local account"):
            aws.login("stranger", "pw")
        assert aws.current_user is None


class TestNfsClientOperationCoverage:
    def test_all_operations_through_client(self, world):
        aws = world.athena_workstation()
        home = aws.login("jis", "jis-pw")
        nfs = home.nfs
        base = home.home_path

        nfs.mkdir(f"{base}/projects")
        nfs.create(f"{base}/projects/notes.txt")
        assert nfs.write(f"{base}/projects/notes.txt", b"athena") == 6
        assert nfs.read(f"{base}/projects/notes.txt") == b"athena"
        assert nfs.readdir(f"{base}/projects") == ["notes.txt"]

        uid, gid, mode, size = nfs.getattr(f"{base}/projects/notes.txt")
        assert (uid, gid, size) == (1001, 100, 6)
        assert mode == 0o644

        nfs.chmod(f"{base}/projects/notes.txt", 0o600)
        assert nfs.getattr(f"{base}/projects/notes.txt")[2] == 0o600

        nfs.remove(f"{base}/projects/notes.txt")
        assert nfs.readdir(f"{base}/projects") == []
        aws.logout()

    def test_errors_surface_with_reason(self, world):
        aws = world.athena_workstation()
        home = aws.login("jis", "jis-pw")
        with pytest.raises(NfsClientError, match="no such file"):
            home.nfs.read("/u/jis/never-created")
        with pytest.raises(NfsClientError, match="already exists"):
            home.nfs.mkdir("/u/jis")
        aws.logout()
