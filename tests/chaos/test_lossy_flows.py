"""Chaos: the full protocol under loss + duplication on the KDC port.

The 1988 exchanges ran over UDP; the acceptance bar here is the paper's
own end-to-end story (Figures 5-13) completing over a KDC link that
drops 10% of requests and duplicates many of the rest — with every
duplicated authenticator absorbed by the server-side replay cache
(Section 4.3) and never surfacing to the client.

The whole run is driven by one seeded RNG, so the same seed must
reproduce the same metric snapshot bit-for-bit (the determinism check
at the bottom is what makes chaos results debuggable at all).
"""

import pytest

from repro.apps.kerberized import KerberizedChannel, Protection
from repro.apps.rlogin import RloginServer
from repro.core import RetryPolicy
from repro.kdbm import KdbmClient
from repro.netsim import Duplicate, Loss, Match, Network
from repro.netsim.ports import KERBEROS_PORT, KSHELL_PORT
from repro.principal import Principal
from repro.realm import Realm, RealmTopology
from repro.user import kpasswd

pytestmark = pytest.mark.chaos

REALM_NAME = "ATHENA.MIT.EDU"

#: Generous but bounded: the simulated day is cheap, unreachability is not.
CLIENT_POLICY = RetryPolicy(max_attempts=12, base_delay=0.1, jitter=0.5)


def run_figures_5_through_13(seed):
    """One pass over the paper's flows with a hostile KDC link; returns
    the network so callers can interrogate the metrics."""
    net = Network(seed=seed)
    realm = Realm(net, REALM_NAME, topology=RealmTopology(slaves_per_shard=1))
    realm.add_user("jis", "jis-pw")
    rcmd, _ = realm.add_service("rcmd", "priam")
    realm.propagate()

    priam = net.add_host("priam")
    rlogind = RloginServer(rcmd, realm.srvtab_for(rcmd)).attach(priam)
    rlogind.add_account("jis")

    # The hostile link: 10% of KDC-bound requests vanish, and half of
    # the survivors arrive twice.  Replies and application/admin/kprop
    # ports are untouched — the KDC port is the stressed resource.
    net.faults.add(Loss(0.10, Match.build(port=KERBEROS_PORT)))
    net.faults.add(Duplicate(0.50, Match.build(port=KERBEROS_PORT)))

    ws = realm.workstation(retry_policy=CLIENT_POLICY)

    # Figures 5/6: initial ticket.  Figures 7/8: service ticket via TGS.
    ws.client.kinit("jis", "jis-pw")
    assert ws.client.get_credential(rcmd) is not None

    # Figure 9: the full rlogin exchange with mutual authentication.
    channel = KerberizedChannel(
        ws.client, rcmd, priam.address, KSHELL_PORT,
        protection=Protection.PRIVATE, mutual=True,
    )
    assert channel.call(b"echo chaos") != b""
    channel.close()

    # Figures 11/12: password change through the KDBM (its own AS
    # exchange rides the same lossy KDC port).
    kdbm = KdbmClient(
        ws.client, realm.master_host.address, retry_policy=CLIENT_POLICY
    )
    assert "Password changed" in kpasswd(kdbm, "jis", "jis-pw", "new-pw")

    # Figure 13: propagation carries the change to the slave, and a
    # fresh login with the new password closes the loop.
    realm.propagate()
    ws2 = realm.workstation(retry_policy=CLIENT_POLICY)
    ws2.client.kinit("jis", "new-pw")
    return net


class TestLossAndDuplication:
    def test_flows_complete_and_replays_are_absorbed(self):
        # Seed chosen so this particular run rolls at least one loss,
        # one duplication, and one replay rejection (seeded = knowable).
        net = run_figures_5_through_13(seed=2025)

        # The link really was hostile.
        assert net.metrics.total("net.drops_total", reason="loss") >= 1
        assert net.metrics.total("net.duplicates_total") >= 1
        assert net.metrics.total("retry.attempts_total") > 0
        assert net.metrics.total("retry.exhausted_total") == 0

        # Every duplicated authenticator-bearing request was rejected by
        # a replay cache, silently: the KDCs' replay rejections account
        # for every RD_AP_REPEAT outcome, and none of them surfaced —
        # all the client calls above succeeded.
        replays = net.metrics.total("replay.checks_total", result="replay")
        repeats = net.metrics.total("kdc.outcomes_total", code="RD_AP_REPEAT")
        assert replays >= 1
        assert replays == repeats
        # Duplicated AS requests carry no authenticator, so only TGS
        # traffic can trip the cache; the AS stays stateless (Section 4.3).
        assert net.metrics.total(
            "kdc.outcomes_total", kind="as", code="RD_AP_REPEAT"
        ) == 0

    def test_same_seed_same_story(self):
        """Satellite determinism check: two runs with one seed produce
        byte-identical metric snapshots — retries, drops, duplicates,
        replay rejections and all."""
        snap_a = (net_a := run_figures_5_through_13(seed=7)).metrics.snapshot(
            now=net_a.clock.now()
        )
        snap_b = (net_b := run_figures_5_through_13(seed=7)).metrics.snapshot(
            now=net_b.clock.now()
        )
        assert snap_a == snap_b

    def test_different_seed_different_fault_schedule(self):
        """...and the seed is actually load-bearing: a different seed
        rolls different faults (drop/duplicate counts diverge)."""
        net_a = run_figures_5_through_13(seed=7)
        net_b = run_figures_5_through_13(seed=8)
        fingerprint = lambda net: (
            net.metrics.total("net.drops_total", reason="loss"),
            net.metrics.total("net.duplicates_total"),
            net.metrics.total("retry.attempts_total"),
        )
        assert fingerprint(net_a) != fingerprint(net_b)
