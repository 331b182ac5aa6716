"""A restart does not re-open the replay window (paper Section 4.3).

*"a request received with the same ticket and time stamp as one already
received can be discarded"* — which holds only while the list of what
was already received survives.  The attacker here is the Section 2
replayer with patience: record a real request off the wire, wait for
the server to reboot (or be re-attached) inside the five-minute skew
window, and send the recording again.

One drill, five daemons — everything that accepts a ticket goes through
:class:`repro.core.applib.AuthenticatedService`, whose replay cache is
durable, so each must give the same answers:

* the recording is refused before the crash *and* after the restart or
  a detach/attach — whatever the recording client's clock said — is
  audited as ``replay_detected`` each time, and leaves no session,
  kernel mapping, database write or file write behind;
* what the daemon held in memory — open sessions, the kernel map — did
  not survive the crash, but the replay cache did;
* a fresh request is served at once, from a client whose clock runs
  slow (inside the skew window) too: a restart locks nobody out.

The immediate-replay leg is the per-daemon example the suite used to
keep for the KDC alone (``test_kdc_tgs.py::
test_replayed_tgs_request_rejected``), now asked of all five.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.apps.kerberized import KerberizedChannel, KerberizedServer, OpenReply
from repro.apps.nfs import AuthMode, MountDaemon, NfsClient, NfsServer
from repro.apps.nfs.fs import NfsCredential
from repro.apps.nfs.protocol import MountReply, NfsReply
from repro.core import (
    ErrorCode,
    KerberosError,
    MessageType,
    Principal,
    decode_message,
    expect_reply,
)
from repro.kdbm.client import KdbmClient
from repro.netsim import Network
from repro.netsim.ports import KDBM_PORT, KERBEROS_PORT, MOUNTD_PORT, NFS_PORT
from repro.realm import Realm
from repro.threat import Replayer

REALM = "ATHENA.MIT.EDU"
DOWNTIME = 30.0
#: How far a slow or fast workstation's clock is off — well inside the
#: five-minute skew window, longer than the outage.
DRIFT = 60.0
UIDS = {"jis": 1001, "bcn": 1002}


@dataclass
class Drill:
    """One daemon in its world, and how to talk to it."""

    daemon: object
    #: Which wire traffic carries an AP request for the daemon.
    port: int
    #: ``request(ws, user)`` — log ``user`` in at ``ws`` and make one
    #: authenticated request through the real client library; raises
    #: when the daemon refuses it.
    request: Callable
    #: Did the daemon refuse, judging by the reply bytes it sent back?
    refused: Callable
    #: A count that every request the daemon *served* moves — compared
    #: before and after a replay to show it was not.
    effects: Callable
    #: How much the daemon holds in memory that a crash must take.
    held: Callable = lambda: 0
    #: Narrows ``port`` when it carries other traffic too.
    carries_ap: Callable = lambda datagram: True


class Echo(KerberizedServer):
    opened = 0

    def on_open(self, session):
        self.opened += 1

    def handle(self, session, data):
        return data


def kerberized(net, realm):
    service, _ = realm.add_service("echo", "apphost")
    host = net.add_host("apphost")
    server = Echo(service, realm.srvtab_for(service), port=2001).attach(host)

    def request(ws, user):
        ws.client.kinit(user, f"{user}-pw")
        KerberizedChannel(ws.client, service, host.address, 2001)  # left open

    return Drill(
        daemon=server, port=2001, request=request,
        refused=lambda raw: not OpenReply.from_bytes(raw).ok,
        effects=lambda: server.opened,
        held=lambda: len(server.sessions),
    )


def kdbm(net, realm):
    site = realm.shards[0]
    passwords = {user: f"{user}-pw" for user in UIDS}
    address = site.master_host.address

    def request(ws, user):
        # kpasswd: a write, under a KDBM ticket straight from the AS.
        old, new = passwords[user], passwords[user] + "+"
        KdbmClient(ws.client, address).change_password(
            Principal(user, "", REALM), old, new
        )
        passwords[user] = new

    def key_versions():
        return [
            site.db.get_record(Principal(user, "", REALM)).key_version
            for user in UIDS
        ]

    return Drill(
        daemon=site.kdbm, port=KDBM_PORT, request=request,
        refused=lambda raw: raw == b"",  # no session key to answer in
        effects=key_versions,
    )


def _fileserver(net, realm, mode):
    host = net.add_host("fs1")
    nfs_service, _ = realm.add_service("nfs", "fs1")
    mount_service, _ = realm.add_service("mountd", "fs1")
    srvtab = realm.srvtab_for(nfs_service, mount_service)
    server = NfsServer(mode=mode, service=nfs_service, srvtab=srvtab).attach(host)
    mountd = MountDaemon(server, mount_service, srvtab).attach(host)
    for user, uid in UIDS.items():
        server.passwd.add(user, uid, [100])
        server.fs.install_home(user, uid, 100)
        server.fs.create(f"/u/{user}/notes", NfsCredential(uid=uid, gids=(100,)))
    return host, server, mountd, nfs_service, mount_service


def mountd(net, realm):
    host, server, daemon, _, mount_service = _fileserver(net, realm, AuthMode.MAPPED)

    def request(ws, user):
        ws.client.kinit(user, f"{user}-pw")
        NfsClient(ws.host, host.address, UIDS[user]).kerberos_mount(
            ws.client, mount_service
        )

    return Drill(
        daemon=daemon, port=MOUNTD_PORT, request=request,
        refused=lambda raw: not MountReply.from_bytes(raw).ok,
        effects=lambda: daemon.mappings_installed,
        held=lambda: len(server.credmap),
    )


def nfs_per_rpc(net, realm):
    host, server, _, nfs_service, _ = _fileserver(net, realm, AuthMode.KERBEROS_RPC)

    def request(ws, user):
        ws.client.kinit(user, f"{user}-pw")
        client = NfsClient(ws.host, host.address, UIDS[user])
        client.enable_per_rpc_kerberos(ws.client, nfs_service)
        client.write(f"/u/{user}/notes", b"written over the wire")

    return Drill(
        daemon=server, port=NFS_PORT, request=request,
        refused=lambda raw: not NfsReply.from_bytes(raw).ok,
        # No operation is applied on an unverified credential.
        effects=lambda: server.kerberos_verifications,
    )


def kdc(net, realm):
    service, _ = realm.add_service("rlogin", "priam")

    def request(ws, user):
        ws.client.kdestroy()
        ws.client.kinit(user, f"{user}-pw")
        ws.client.get_credential(service)  # one TGS exchange

    def refused(raw):
        with pytest.raises(KerberosError) as err:
            expect_reply(raw, MessageType.TGS_REP)
        return err.value.code == ErrorCode.RD_AP_REPEAT

    return Drill(
        daemon=realm.shards[0].kdc, port=KERBEROS_PORT, request=request, refused=refused,
        effects=lambda: realm.shards[0].kdc.metrics.total(
            "kdc.outcomes_total", kind="tgs", code="OK"
        ),
        # The AS half of the port takes no ticket.
        carries_ap=lambda d: decode_message(d.payload)[0] == MessageType.TGS_REQ,
    )


@pytest.fixture(params=[kerberized, kdbm, mountd, nfs_per_rpc, kdc],
                ids=lambda build: build.__name__)
def world(request):
    net = Network()
    realm = Realm(net, REALM)
    for user in UIDS:
        realm.add_user(user, f"{user}-pw")
    return net, realm, request.param(net, realm)


def _power_cycle(net, drill):
    net.crash_host(drill.daemon.host.name, downtime=DOWNTIME)
    net.runtime.run_for(DOWNTIME + 1.0)
    assert drill.daemon.host.up


def _record(net, drill, ws):
    """Log ``jis`` in at ``ws`` with a tape running; return the tape of
    the one AP request and the daemon's effect count after it."""
    address = drill.daemon.host.address
    tape = Replayer(net, match=lambda d: (
        d.dst == address and d.dst_port == drill.port and drill.carries_ap(d)
    ))
    drill.request(ws, "jis")
    assert len(tape.captured) == 1
    return tape, drill.effects()


def _replay_refused(net, drill, tape, served):
    """Replay the tape: refused, audited, no effect.  Returns how many
    replays have been caught so far."""
    assert drill.refused(tape.replay())
    caught = net.audit.events("replay_detected")
    assert caught[-1].host == drill.daemon.host.name
    assert "jis" in caught[-1].principal
    assert "reused authenticator" in caught[-1].detail
    assert drill.effects() == served
    return len(caught)


def test_captured_request_is_refused_after_restart(world):
    net, realm, drill = world
    ws = realm.workstation()
    tape, served = _record(net, drill, ws)

    # The steady state: the cache remembers the authenticator.
    assert _replay_refused(net, drill, tape, served) == 1
    cached = len(drill.daemon.replay_cache)

    _power_cycle(net, drill)
    assert drill.held() == 0  # sessions, kernel map: gone with the power
    assert len(drill.daemon.replay_cache) == cached > 0  # the cache is not

    # so the recording is as dead as before.
    assert _replay_refused(net, drill, tape, served) == 2
    assert drill.held() == 0

    # The client it was stolen from is not locked out.
    drill.request(ws, "jis")
    assert drill.effects() != served
    assert net.audit.count("replay_detected") == 2


def test_fast_clock_recording_is_refused_after_the_restart(world):
    """A stamp from a workstation running ahead of the outage is no
    newer than anything the durable cache has seen."""
    net, realm, drill = world
    tape, served = _record(net, drill, realm.workstation(clock_skew=+DRIFT))
    _power_cycle(net, drill)
    assert _replay_refused(net, drill, tape, served) == 1


def test_captured_request_is_refused_after_a_reattach(world):
    net, realm, drill = world
    tape, served = _record(net, drill, realm.workstation())
    host = drill.daemon.host
    drill.daemon.detach()
    drill.daemon.attach(host)
    assert _replay_refused(net, drill, tape, served) == 1


def test_slow_clock_client_is_served_at_once_after_the_restart(world):
    """A workstation running ``DRIFT`` seconds behind (inside the skew
    window) is served in the steady state, and so right after a
    restart: the restart adds no rule of its own."""
    net, realm, drill = world
    slow = realm.workstation(clock_skew=-DRIFT)
    drill.request(slow, "bcn")
    served = drill.effects()

    _power_cycle(net, drill)
    drill.request(slow, "bcn")
    assert drill.effects() != served
    assert net.audit.count("replay_detected") == 0
