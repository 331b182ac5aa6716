"""Chaos on the event-driven runtime: Figures 5-13 with time in play.

`test_lossy_flows` stresses the KDC *link*; this suite stresses the KDC
*machine* as well.  Datagrams are genuinely in flight (propagation
latency plus jitter), the KDCs run the concurrent service loop (bounded
queue, batching, worker pool), and the link still loses and duplicates
requests.  The paper's end-to-end story must complete through all of it,
and — the runtime's core promise — one seed must reproduce the same
event interleaving bit-for-bit.
"""

import pytest

from repro.apps.kerberized import KerberizedChannel, Protection
from repro.apps.rlogin import RloginServer
from repro.core import RetryPolicy
from repro.kdbm import KdbmClient
from repro.netsim import Duplicate, Jitter, Loss, Match, Network
from repro.netsim.ports import KERBEROS_PORT, KSHELL_PORT
from repro.principal import Principal
from repro.realm import Realm, RealmTopology
from repro.runtime import WorkQueueConfig
from repro.user import kpasswd

pytestmark = pytest.mark.chaos

REALM_NAME = "ATHENA.MIT.EDU"

CLIENT_POLICY = RetryPolicy(max_attempts=12, base_delay=0.1, jitter=0.5)

#: Small enough that the flows actually exercise queueing (non-zero
#: service time per batch), roomy enough not to shed closed-loop logins.
KDC_QUEUE = WorkQueueConfig(workers=2, batch_size=4, queue_limit=16)


def run_figures_on_event_runtime(seed):
    """One pass over the paper's flows on a realm where time is real:
    2 ms propagation, jittered delivery, queued KDCs, lossy KDC link."""
    net = Network(seed=seed, latency=0.002)
    realm = Realm(
        net, REALM_NAME,
        topology=RealmTopology(slaves_per_shard=1, kdc_queue=KDC_QUEUE),
    )
    realm.add_user("jis", "jis-pw")
    rcmd, _ = realm.add_service("rcmd", "priam")
    realm.propagate()

    priam = net.add_host("priam")
    rlogind = RloginServer(rcmd, realm.srvtab_for(rcmd)).attach(priam)
    rlogind.add_account("jis")

    # The hostile world: some KDC-bound requests vanish, some arrive
    # twice, and everything wobbles in transit.
    net.faults.add(Loss(0.10, Match.build(port=KERBEROS_PORT)))
    net.faults.add(Duplicate(0.30, Match.build(port=KERBEROS_PORT)))
    net.faults.add(Jitter(0.0, 0.003))

    ws = realm.workstation(retry_policy=CLIENT_POLICY)

    # Figures 5/6 and 7/8: initial ticket, then a service ticket.
    ws.client.kinit("jis", "jis-pw")
    assert ws.client.get_credential(rcmd) is not None

    # Figure 9: the full rlogin exchange with mutual authentication.
    channel = KerberizedChannel(
        ws.client, rcmd, priam.address, KSHELL_PORT,
        protection=Protection.PRIVATE, mutual=True,
    )
    assert channel.call(b"echo chaos") != b""
    channel.close()

    # Figures 11/12: password change through the KDBM.
    kdbm = KdbmClient(
        ws.client, realm.shards[0].master_host.address, retry_policy=CLIENT_POLICY
    )
    assert "Password changed" in kpasswd(kdbm, "jis", "jis-pw", "new-pw")

    # Figure 13: propagation, then a fresh login with the new password.
    realm.propagate()
    ws2 = realm.workstation(retry_policy=CLIENT_POLICY)
    ws2.client.kinit("jis", "new-pw")
    return net


class TestEventRuntimeFlows:
    def test_flows_complete_with_queued_kdcs_and_jitter(self):
        net = run_figures_on_event_runtime(seed=1988)

        # Time genuinely passed: latency, jitter, and batch service
        # times all advanced the simulated clock.
        assert net.clock.now() > 0.0

        # The KDCs really ran the concurrent service loop.
        assert net.metrics.total("kdc.queue.batches_total") >= 1
        assert net.metrics.total("kdc.queue.submitted_total") >= 1

        # The world really was hostile, and the clients rode it out.
        assert net.metrics.total("faults.injected_total", kind="jitter") >= 1
        assert net.metrics.total("retry.exhausted_total") == 0

    def test_same_seed_same_event_interleaving(self):
        """The tentpole determinism claim: scheduled delivery, seeded
        tie-breaks, queued service — and still bit-identical snapshots
        (metrics *and* final clock) for one seed."""
        # Both snapshots are taken after both runs: run B moves nothing
        # in run A's registry.
        net_a = run_figures_on_event_runtime(seed=41)
        net_b = run_figures_on_event_runtime(seed=41)
        assert net_a.runtime.executed == net_b.runtime.executed
        assert net_a.metrics.snapshot(now=net_a.clock.now()) == (
            net_b.metrics.snapshot(now=net_b.clock.now())
        )

    def test_different_seed_different_interleaving(self):
        net_a = run_figures_on_event_runtime(seed=41)
        net_b = run_figures_on_event_runtime(seed=42)
        fingerprint = lambda net: (
            net.runtime.executed,
            net.clock.now(),
            net.metrics.total("retry.attempts_total"),
        )
        assert fingerprint(net_a) != fingerprint(net_b)
