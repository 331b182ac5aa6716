"""A realm's planes report that realm alone.

A realm is its own administrative domain — its own KDC, its own
database — so what its registry, spans, audit log and wire record must
not move with work done by another realm in the same process, and a
same-seed realm must read the same whatever ran before it.  The
``string_to_key`` memo is process-wide but content addressed and read by
no registry; every cache that changes what a KDC records (the TGT memo,
the sealed-ticket skeletons, the master key's unseal cache) belongs to
that realm.
"""

import pytest

import repro.scenarios as scenarios
from repro.netsim import Network
from repro.obs import render_chrome_trace, render_prometheus
from repro.obs.report import demo, render_report
from repro.principal import Principal
from repro.realm import Realm

pytestmark = pytest.mark.obs

REALM = "ATHENA.MIT.EDU"
RLOGIN = Principal("rlogin", "priam", REALM)


def build_realm():
    realm = Realm(Network(latency=0.001, seed=3), REALM)
    realm.add_user("jis", "jis-pw")
    realm.add_service("rlogin", "priam")
    return realm


def exports(net, wire=None):
    """Every plane of ``net`` as text."""
    return (
        render_prometheus(net.metrics),
        render_chrome_trace(net.tracer),
        net.audit.format(),
        wire.format() if wire is not None else "",
    )


def test_an_idle_realm_reads_the_same_while_another_works():
    busy, idle = build_realm(), build_realm()
    before = exports(idle.net)
    busy.workstation().client.kinit("jis", "jis-pw")  # one AS exchange
    assert exports(idle.net) == before


def test_a_realm_reads_the_same_after_its_twin_ran():
    """Two same-seed realms, one after the other: the second's KDC
    starts with empty caches of its own, so its spans (``crypto_ops``,
    ``stage_skeleton_hits``) and counters equal the first's."""
    first, second = build_realm(), build_realm()
    for realm in (first, second):
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        ws.client.get_credential(RLOGIN)
    assert exports(second.net) == exports(first.net)


def test_report_demo_exports_the_same_after_a_campaign():
    """``report.demo()`` twice, another campaign run in between, and no
    cache cleared: every plane byte-identical."""

    def run():
        planes = demo()
        net = planes["wire"].net
        return exports(net, planes["wire"]) + (render_report(**planes),)

    first = run()
    scenarios.run("login_burst", 1988)
    assert run() == first
