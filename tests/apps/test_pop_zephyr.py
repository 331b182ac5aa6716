"""Kerberized POP and Zephyr tests (paper Section 7.1)."""

import pytest

from repro.apps.kerberized import ChannelError
from repro.apps.pop import PopClient, PopServer
from repro.apps.zephyr import Notice, ZephyrClient, ZephyrServer
from repro.encode import DecodeError, pack_frames

from tests.apps.conftest import REALM


@pytest.fixture
def post_office(world):
    service, _ = world.realm.add_service("pop", "mailhost")
    host = world.net.add_host("mailhost")
    server = PopServer(service, world.realm.srvtab_for(service)).attach(host)
    server.deliver("jis", b"From: bcn\r\n\r\nlunch?")
    server.deliver("jis", b"From: treese\r\n\r\nmeeting at 3")
    server.deliver("bcn", b"From: jis\r\n\r\nsure")
    return service, host, server


@pytest.fixture
def zephyr(world):
    service, _ = world.realm.add_service("zephyr", "zhost")
    host = world.net.add_host("zhost")
    server = ZephyrServer(service, world.realm.srvtab_for(service)).attach(host)
    return service, host, server


def login(world, user, pw):
    ws = world.workstation()
    ws.client.kinit(user, pw)
    return ws


class TestPop:
    def test_retrieve_own_mail(self, world, post_office):
        service, host, _ = post_office
        ws = login(world, "jis", "jis-pw")
        pop = PopClient(ws.client, service, host.address)
        assert pop.stat() == 2
        assert b"lunch?" in pop.retrieve(1)
        pop.quit()

    def test_mailbox_selected_by_authenticated_identity(self, world, post_office):
        """No way to name someone else's mailbox: the principal IS the
        mailbox selector."""
        service, host, _ = post_office
        ws = login(world, "bcn", "bcn-pw")
        pop = PopClient(ws.client, service, host.address)
        assert pop.stat() == 1          # bcn's single message
        assert b"sure" in pop.retrieve(1)

    def test_delete(self, world, post_office):
        service, host, _ = post_office
        ws = login(world, "jis", "jis-pw")
        pop = PopClient(ws.client, service, host.address)
        pop.delete(1)
        assert pop.stat() == 1
        assert b"meeting" in pop.retrieve(1)

    def test_mail_content_encrypted_on_wire(self, world, post_office):
        """POP uses the PRIVATE level: bodies never travel in the clear."""
        service, host, _ = post_office
        ws = login(world, "jis", "jis-pw")
        pop = PopClient(ws.client, service, host.address)
        captured = []
        world.net.add_tap(lambda d: captured.append(d.payload))
        pop.retrieve(1)
        assert not any(b"lunch?" in p for p in captured)

    def test_unauthenticated_no_mail(self, world, post_office):
        from repro.core.errors import KerberosError

        service, host, _ = post_office
        ws = world.workstation()
        with pytest.raises(KerberosError):
            PopClient(ws.client, service, host.address)

    def test_bad_message_index(self, world, post_office):
        service, host, _ = post_office
        ws = login(world, "jis", "jis-pw")
        pop = PopClient(ws.client, service, host.address)
        with pytest.raises(ChannelError, match="no such message"):
            pop.retrieve(99)


class TestZephyr:
    def test_send_and_receive(self, world, zephyr):
        service, host, _ = zephyr
        sender = login(world, "jis", "jis-pw")
        recipient = login(world, "bcn", "bcn-pw")
        zw = ZephyrClient(sender.client, service, host.address)
        zw.zwrite("bcn", "lunch at walker?")
        zr = ZephyrClient(recipient.client, service, host.address)
        notices = zr.poll()
        assert len(notices) == 1
        assert notices[0].body == "lunch at walker?"

    def test_sender_is_authenticated_identity(self, world, zephyr):
        """The server stamps the sender from the session — a client
        cannot send notices as someone else."""
        service, host, _ = zephyr
        sender = login(world, "jis", "jis-pw")
        zw = ZephyrClient(sender.client, service, host.address)
        zw.zwrite("bcn", "hello")
        recipient = login(world, "bcn", "bcn-pw")
        zr = ZephyrClient(recipient.client, service, host.address)
        assert zr.poll()[0].sender == f"jis@{REALM}"

    def test_poll_clears_queue(self, world, zephyr):
        service, host, _ = zephyr
        ws = login(world, "jis", "jis-pw")
        z = ZephyrClient(ws.client, service, host.address)
        z.zwrite("jis", "note to self")
        assert len(z.poll()) == 1
        assert z.poll() == []

    def test_cannot_read_others_queue(self, world, zephyr):
        """POLL only ever returns the authenticated user's notices."""
        service, host, _ = zephyr
        sender = login(world, "jis", "jis-pw")
        z1 = ZephyrClient(sender.client, service, host.address)
        z1.zwrite("bcn", "private note for bcn")
        # jis polls; bcn's queue must be untouched.
        assert z1.poll() == []
        recipient = login(world, "bcn", "bcn-pw")
        z2 = ZephyrClient(recipient.client, service, host.address)
        assert len(z2.poll()) == 1

    def test_opcode_carried(self, world, zephyr):
        service, host, _ = zephyr
        ws = login(world, "jis", "jis-pw")
        z = ZephyrClient(ws.client, service, host.address)
        z.zwrite("jis", "", opcode="LOGIN")
        assert z.poll()[0].opcode == "LOGIN"

    def test_poll_refuses_a_truncated_frame(self, world, zephyr):
        """A reply whose length prefix promises more than it holds is
        refused, even when the bytes that are there hold a whole notice."""
        service, host, _ = zephyr
        z = ZephyrClient(login(world, "jis", "jis-pw").client, service, host.address)
        blob = Notice(sender="a", recipient="jis", opcode="MESSAGE", body="hi").to_bytes()
        z.channel.call = lambda data: (len(blob) + 100).to_bytes(4, "big") + blob
        with pytest.raises(DecodeError, match="truncated frame 0: prefix promises"):
            z.poll()
        z.channel.call = lambda data: pack_frames([blob, blob])
        assert [n.body for n in z.poll()] == ["hi", "hi"]
