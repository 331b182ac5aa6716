"""The KDC's concurrent service loop: queueing, shedding, crash, batching.

Section 9's busy hour makes the KDC a queueing system.  These tests pin
the admission-control contract (a full queue answers *now* with a typed
``KDC_OVERLOADED`` the failover path rides out), the crash semantics
(queued requests die silently; senders time out and fail over), and the
batch amortization claim (shared DB rows are fetched once per batch).
"""

import pytest

from repro.core.errors import ErrorCode, KdcOverloaded
from repro.core.messages import (
    AsRequest,
    MessageType,
    decode_message,
    encode_message,
)
from repro.netsim import Datagram, DeferredReply, Network, Unreachable
from repro.netsim.ports import KERBEROS_PORT
from repro.principal import Principal, tgs_principal
from repro.realm import Realm, RealmTopology
from repro.runtime import WorkQueueConfig
from repro.workload import AthenaWorkload

REALM = "ATHENA.MIT.EDU"

#: One worker, one queue slot: the third concurrent request is shed.
TINY = WorkQueueConfig(workers=1, batch_size=1, queue_limit=1)


def build_realm(net=None, slaves=0, queue=None):
    net = net or Network(seed=5)
    realm = Realm(
        net, REALM,
        topology=RealmTopology(slaves_per_shard=slaves, kdc_queue=queue),
    )
    realm.add_user("jis", "jis-pw")
    if slaves:
        realm.propagate()
    return net, realm


def as_req_wire(realm, username="jis", now=0.0):
    request = AsRequest(
        client=Principal(username, "", realm.name),
        service=tgs_principal(realm.name),
        requested_life=3600.0,
        timestamp=now,
    )
    return encode_message(MessageType.AS_REQ, request)


def fill_queue(realm, n):
    """Occupy the KDC's worker and queue slots with valid AS requests."""
    wire = as_req_wire(realm, now=realm.net.clock.now())
    src = realm.net.add_host("filler")
    for _ in range(n):
        datagram = Datagram(
            src=src.address, src_port=0,
            dst=realm.master_host.address, dst_port=KERBEROS_PORT,
            payload=wire,
        )
        realm.kdc.workqueue.submit((datagram, DeferredReply()))


class TestQueuedService:
    def test_login_completes_through_the_queue(self):
        net, realm = build_realm(queue=WorkQueueConfig(workers=2))
        ws = realm.workstation()
        assert ws.client.kinit("jis", "jis-pw") is not None
        # Service took simulated time: one batch, non-zero cost.
        assert realm.kdc.workqueue.batches >= 1
        assert net.clock.now() > 0.0

    def test_inline_kdc_has_no_queue(self):
        net, realm = build_realm()
        assert realm.kdc.workqueue is None
        ws = realm.workstation()
        assert ws.client.kinit("jis", "jis-pw") is not None


class TestShedding:
    def test_single_kdc_overload_exhausts_retries(self):
        """With nowhere to fail over to, a saturated KDC sheds every
        retransmission at the same instant and the client gives up."""
        net, realm = build_realm(queue=TINY)
        fill_queue(realm, 2)  # worker busy + queue full
        ws = realm.workstation()
        with pytest.raises(Unreachable):
            ws.client.kinit("jis", "jis-pw")
        assert net.metrics.total(
            "kdc.outcomes_total", code="KDC_OVERLOADED"
        ) >= 3  # every retransmission was shed
        assert net.metrics.total("kdc.queue.shed_total") >= 3
        assert net.metrics.total("retry.exhausted_total") == 1

    def test_shed_reply_decodes_to_typed_overload_error(self):
        net, realm = build_realm(queue=TINY)
        fill_queue(realm, 2)
        ws = realm.workstation()
        raw = ws.host.rpc(
            realm.master_host.address, KERBEROS_PORT, as_req_wire(realm)
        )
        mtype, message = decode_message(raw)
        assert mtype == MessageType.ERROR
        assert message.code == ErrorCode.KDC_OVERLOADED
        # The error surface maps the code to the typed exception, and
        # the type is an Unreachable — that is what failover rides.
        with pytest.raises(KdcOverloaded):
            message.raise_()
        assert issubclass(KdcOverloaded, Unreachable)

    def test_failover_rides_out_the_overload(self):
        """Figure 10 under load: the master sheds, the client fails over
        to the slave, the login succeeds anyway."""
        net, realm = build_realm(slaves=1, queue=TINY)
        fill_queue(realm, 2)  # only the master is saturated
        ws = realm.workstation()
        assert ws.client.kinit("jis", "jis-pw") is not None
        assert net.metrics.total("kdc.failovers_total") == 1
        assert net.metrics.total(
            "kdc.outcomes_total", code="KDC_OVERLOADED"
        ) >= 1


class TestCrash:
    def test_crash_drops_queued_requests_silently(self):
        net, realm = build_realm(queue=TINY)
        ws = realm.workstation()
        wire = as_req_wire(realm)
        first = ws.host.rpc_async(
            realm.master_host.address, KERBEROS_PORT, wire
        )
        second = ws.host.rpc_async(
            realm.master_host.address, KERBEROS_PORT, wire
        )
        net.runtime.run_until_idle(horizon=net.clock.now())  # arrivals only
        assert realm.kdc.workqueue.busy_workers == 1
        assert realm.kdc.workqueue.depth == 1
        net.set_down(realm.master_host.name)
        net.runtime.run_until_idle()
        # Both senders hear nothing: the queued one died at crash time,
        # the in-service one's completion found the host down.
        assert isinstance(first.error, Unreachable)
        assert isinstance(second.error, Unreachable)

    def test_client_fails_over_past_a_crashed_queued_master(self):
        net, realm = build_realm(slaves=1, queue=WorkQueueConfig(workers=2))
        net.crash_host(realm.master_host.name)
        ws = realm.workstation()
        assert ws.client.kinit("jis", "jis-pw") is not None
        assert net.metrics.total("kdc.failovers_total") == 1

    def test_restart_serves_again(self):
        net, realm = build_realm(queue=TINY)
        net.crash_host(realm.master_host.name, downtime=10.0)
        net.clock.advance(11.0)
        ws = realm.workstation()
        assert ws.client.kinit("jis", "jis-pw") is not None
        assert realm.kdc.workqueue.idle


class TestBatchAmortization:
    def test_shared_rows_fetched_once_per_batch(self):
        """Every AS request in a batch wants the TGS principal's row;
        the batch memo fetches it once and counts the savings."""
        net = Network(seed=9)
        queue = WorkQueueConfig(workers=1, batch_size=8, queue_limit=64)
        realm = Realm(net, REALM, topology=RealmTopology(kdc_queue=queue))
        workload = AthenaWorkload(realm, n_users=12, n_services=0, seed=1)
        stations = workload.workstations(12, spread_kdcs=False)
        result = workload.login_burst(stations, window=0.001)
        assert result.completed == 12
        assert net.metrics.total("kdc.batch_lookups_saved_total") > 0

    def test_burst_digest_is_seed_stable(self):
        def run():
            net = Network(seed=31)
            queue = WorkQueueConfig(workers=2)
            realm = Realm(net, REALM, topology=RealmTopology(kdc_queue=queue))
            workload = AthenaWorkload(realm, n_users=8, n_services=0, seed=2)
            stations = workload.workstations(8, spread_kdcs=False)
            return workload.login_burst(stations, window=0.01)

        a, b = run(), run()
        assert a.digest == b.digest
        assert a.completed == b.completed == 8
