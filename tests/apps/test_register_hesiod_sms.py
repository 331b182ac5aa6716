"""register / Hesiod / SMS tests (paper Sections 2.2 and 7.1)."""

import pytest

from repro.apps.hesiod import HesiodServer, hesiod_lookup
from repro.apps.register import RegisterServer, register_user
from repro.apps.sms import SmsServer, sms_validate
from repro.principal import Principal

from tests.apps.conftest import REALM


@pytest.fixture
def signup(world):
    """SMS + register server on the master machine."""
    sms_host = world.net.add_host("sms")
    sms = SmsServer().attach(sms_host)
    sms.add_affiliate("Barbara C. Newuser", "912345678")
    register = RegisterServer(
        world.realm.shards[0].db, sms_host.address
    ).attach(world.realm.shards[0].master_host)
    return sms_host, sms, register


class TestHesiod:
    def test_lookup(self, world):
        ws = world.workstation()
        entry = hesiod_lookup(ws.host, world.hesiod_host.address, "jis")
        assert entry.uid == 1001
        assert entry.home_server == "fs1"
        assert entry.home_path == "/u/jis"

    def test_missing_user(self, world):
        ws = world.workstation()
        assert hesiod_lookup(ws.host, world.hesiod_host.address, "nobody") is None

    def test_passwd_line_construction(self, world):
        """The appendix: Hesiod data builds the local passwd entry."""
        entry = world.hesiod.local_lookup("jis")
        line = entry.passwd_line()
        assert line.startswith("jis:*:1001:100:")
        assert "/u/jis" in line

    def test_hesiod_data_travels_in_cleartext(self, world):
        """Section 2.2's design point: non-sensitive data is allowed to
        travel unencrypted."""
        ws = world.workstation()
        captured = []
        world.net.add_tap(lambda d: captured.append(d.payload))
        hesiod_lookup(ws.host, world.hesiod_host.address, "jis")
        assert any(b"/u/jis" in p for p in captured)

    def test_query_counter(self, world):
        ws = world.workstation()
        hesiod_lookup(ws.host, world.hesiod_host.address, "jis")
        hesiod_lookup(ws.host, world.hesiod_host.address, "bcn")
        assert world.hesiod.queries == 2


class TestSms:
    def test_valid_affiliate(self, world, signup):
        sms_host, _, _ = signup
        ws = world.workstation()
        assert sms_validate(
            ws.host, sms_host.address, "Barbara C. Newuser", "912345678"
        )

    def test_unknown_id(self, world, signup):
        sms_host, _, _ = signup
        ws = world.workstation()
        assert not sms_validate(ws.host, sms_host.address, "Anyone", "000000000")

    def test_name_must_match_id(self, world, signup):
        sms_host, _, _ = signup
        ws = world.workstation()
        assert not sms_validate(
            ws.host, sms_host.address, "Wrong Name", "912345678"
        )


class TestRegister:
    def test_successful_signup(self, world, signup):
        ws = world.workstation()
        text = register_user(
            ws.host,
            world.realm.shards[0].master_host.address,
            "Barbara C. Newuser",
            "912345678",
            "barbn",
            "first-password",
        )
        assert "welcome" in text
        assert world.realm.shards[0].db.exists(Principal("barbn", "", REALM))
        # And the account actually works.
        ws.client.kinit("barbn", "first-password")

    def test_invalid_affiliate_rejected(self, world, signup):
        ws = world.workstation()
        with pytest.raises(RuntimeError, match="SMS"):
            register_user(
                ws.host,
                world.realm.shards[0].master_host.address,
                "Impostor",
                "999999999",
                "imp",
                "pw",
            )

    def test_duplicate_username_rejected(self, world, signup):
        """Paper: register checks with Kerberos that the requested username
        is unique."""
        ws = world.workstation()
        with pytest.raises(RuntimeError, match="taken"):
            register_user(
                ws.host,
                world.realm.shards[0].master_host.address,
                "Barbara C. Newuser",
                "912345678",
                "jis",  # already registered
                "pw",
            )

    def test_password_not_in_cleartext(self, world, signup):
        ws = world.workstation()
        captured = []
        world.net.add_tap(lambda d: captured.append(d.payload))
        register_user(
            ws.host,
            world.realm.shards[0].master_host.address,
            "Barbara C. Newuser",
            "912345678",
            "barbn",
            "the-new-password",
        )
        assert not any(b"the-new-password" in p for p in captured)

    def test_registration_counter(self, world, signup):
        _, _, register = signup
        ws = world.workstation()
        register_user(
            ws.host,
            world.realm.shards[0].master_host.address,
            "Barbara C. Newuser",
            "912345678",
            "barbn",
            "pw",
        )
        assert register.registrations == 1
