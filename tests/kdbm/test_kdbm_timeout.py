"""KdbmClient under transport failure: a typed, bounded timeout.

Admin writes are master-only (Figure 11) — there is no failover target —
so when the master is unreachable the client must give up after its
retry policy and say so with :class:`KdbmTimeout`, not hang and not
mislabel the outage as an authentication problem.
"""

import pytest

from repro.core import ErrorCode, KerberosError, RetryPolicy
from repro.kdbm import KdbmClient, KdbmTimeout
from repro.netsim import Network, Unreachable
from repro.netsim.ports import KDBM_PORT
from repro.principal import Principal
from repro.realm import Realm, RealmTopology

REALM_NAME = "ATHENA.MIT.EDU"


@pytest.fixture
def realm_world():
    net = Network(seed=3)
    realm = Realm(net, REALM_NAME, topology=RealmTopology(slaves_per_shard=1))
    realm.add_user("jis", "jis-pw")
    realm.propagate()  # the slave needs jis to serve AS while master is down
    ws = realm.workstation()
    return net, realm, ws


def test_master_down_raises_typed_timeout(realm_world):
    net, realm, ws = realm_world
    net.set_down(realm.master_host.name)
    kdbm = KdbmClient(
        ws.client,
        realm.master_host.address,
        retry_policy=RetryPolicy(max_attempts=3),
    )
    # The AS exchange itself still works: the slave answers it.
    with pytest.raises(KdbmTimeout) as exc_info:
        kdbm.change_password(Principal("jis", "", REALM_NAME), "jis-pw", "new")
    exc = exc_info.value
    assert exc.attempts == 3
    assert exc.code == ErrorCode.KDBM_ERROR
    # Typed both ways: a protocol error AND a transport unreachability,
    # so pre-existing handlers of either keep working.
    assert isinstance(exc, KerberosError)
    assert isinstance(exc, Unreachable)
    assert net.metrics.total("retry.attempts_total", op="kdbm") == 3
    assert net.metrics.total("retry.exhausted_total", op="kdbm") == 1


def test_blackholed_port_is_bounded_not_hung(realm_world):
    """A KDBM port that swallows requests (no reply ever) exhausts the
    policy instead of retrying forever."""
    net, realm, ws = realm_world
    seen = []

    def blackhole(datagram):
        if datagram.dst_port == KDBM_PORT:
            seen.append(datagram)
            return None
        return datagram

    net.add_interceptor(blackhole)
    kdbm = KdbmClient(
        ws.client,
        realm.master_host.address,
        retry_policy=RetryPolicy(max_attempts=4),
    )
    with pytest.raises(KdbmTimeout):
        kdbm.change_password(Principal("jis", "", REALM_NAME), "jis-pw", "new")
    assert len(seen) == 4


def test_retransmissions_carry_fresh_authenticators(realm_world):
    """Lost *replies* are the dangerous case: the KDBM already recorded
    the first authenticator, so the retry must not be a verbatim resend
    — and the operation must succeed on the second attempt."""
    net, realm, ws = realm_world
    state = {"dropped": False}

    def drop_first_reply(datagram):
        if datagram.src_port == KDBM_PORT and not state["dropped"]:
            state["dropped"] = True
            return None
        return datagram

    net.add_interceptor(drop_first_reply)
    kdbm = KdbmClient(
        ws.client,
        realm.master_host.address,
        retry_policy=RetryPolicy(max_attempts=3),
    )
    out = kdbm.change_password(
        Principal("jis", "", REALM_NAME), "jis-pw", "new-pw"
    )
    assert state["dropped"]
    assert out  # the change took
    # And it really took on the server: the new password logs in.
    ws2 = realm.workstation()
    ws2.client.kinit("jis", "new-pw")


def test_auth_failure_still_reported_as_protocol_error(realm_world):
    """The empty-reply path (server refused to authenticate us) is not a
    timeout and must keep its historical report."""
    net, realm, ws = realm_world
    # Corrupt every KDBM request's AP portion so krb_rd_req fails and
    # the server answers with the bare empty error.
    def corrupt(datagram):
        if datagram.dst_port == KDBM_PORT:
            return type(datagram)(
                src=datagram.src,
                src_port=datagram.src_port,
                dst=datagram.dst,
                dst_port=datagram.dst_port,
                payload=b"\x00" * len(datagram.payload),
            )
        return datagram

    net.add_interceptor(corrupt)
    kdbm = KdbmClient(ws.client, realm.master_host.address)
    with pytest.raises(KerberosError) as exc_info:
        kdbm.change_password(Principal("jis", "", REALM_NAME), "jis-pw", "x")
    assert not isinstance(exc_info.value, KdbmTimeout)
    assert "dropped the request" in str(exc_info.value)
