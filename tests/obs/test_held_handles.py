"""Per-event code holds its instrument handles.

The scheduler, the network's wire leg, the tracer, the audit log and
the work queue each bump a labelled series per event.  They used to
look it up by name every time — a dict, a sort and a tuple per lookup,
19.7 lookups per ``login_storm`` op; now each holds a family of them
(``MetricsRegistry.family``) on the registry it was built with, each
series *bound at first use* (at attach it would put an empty series
into every pinned export).  The structural half — none of those
functions names the registry — is the ``tests/lint`` rule
``pipeline-reads-handles``.
"""

import pytest

from repro.netsim import Network, SimClock
from repro.obs import AuditLog, MetricsRegistry, Tracer
from repro.runtime import EventScheduler, WorkQueue, WorkQueueConfig


def series(registry):
    """Every series of the registry with its value, as the exports see
    them."""
    return {
        (inst.name, inst.labels): getattr(inst, "value", None)
        if inst.kind != "histogram" else inst.count
        for inst in registry.instruments()
    }


def make_scheduler(registry):
    return EventScheduler(SimClock(), metrics=registry)


def scheduler_traffic(sched):
    for label in ("a", "b", "a", ""):
        sched.after(1.0, lambda: None, label=label)
    sched.run_until_idle()
    return {
        ("runtime.events_scheduled_total", (("label", "a"),)): 2.0,
        ("runtime.events_scheduled_total", (("label", "b"),)): 1.0,
        ("runtime.events_scheduled_total", (("label", "event"),)): 1.0,
        ("runtime.events_run_total", (("label", "a"),)): 2.0,
        ("runtime.events_run_total", (("label", "b"),)): 1.0,
        ("runtime.events_run_total", (("label", "event"),)): 1.0,
        ("runtime.wait_depth_max", ()): 0.0,
    }


def make_tracer(registry):
    return Tracer(SimClock(), max_spans=3, metrics=registry)


def tracer_traffic(tracer):
    tracer.clear()
    for name in ("x", "y", "x", "z", "x"):
        with tracer.span(name):
            pass
    return {
        ("trace.spans_total", (("name", "x"),)): 2.0,
        ("trace.spans_total", (("name", "y"),)): 1.0,
        ("trace.spans_dropped_total", ()): 2.0,
    }


def make_audit(registry):
    return AuditLog(SimClock(), metrics=registry, max_events=3)


def audit_traffic(log):
    log.clear()
    for kind in ("auth_failure", "replay_detected", "auth_failure",
                 "auth_success"):
        log.emit(kind)
    return {
        ("audit.events_total", (("kind", "auth_failure"),)): 2.0,
        ("audit.events_total", (("kind", "replay_detected"),)): 1.0,
        ("audit.events_dropped_total", ()): 1.0,
    }


def make_queue(registry):
    return WorkQueue(
        EventScheduler(SimClock()),
        WorkQueueConfig(workers=1, batch_size=2, queue_limit=2),
        lambda batch, waits: None, label="q", metrics=registry, labels={"s": "k"},
    )


def queue_traffic(queue):
    for item in range(4):  # one in service, two queued, one shed
        queue.submit(item)
    queue.scheduler.run_until_idle()
    labels = (("s", "k"),)
    return {
        ("q.submitted_total", labels): 3.0,
        ("q.shed_total", labels): 1.0,
        ("q.batches_total", labels): 2.0,
        ("q.queue_depth", labels): 0.0,
        ("q.wait_seconds", labels): 3,
    }


OWNERS = {
    "scheduler": (make_scheduler, scheduler_traffic),
    "tracer": (make_tracer, tracer_traffic),
    "audit": (make_audit, audit_traffic),
    "workqueue": (make_queue, queue_traffic),
}


@pytest.mark.parametrize("owner", OWNERS)
def test_built_without_a_registry_counts_nothing_and_raises_nothing(owner):
    make, traffic = OWNERS[owner]
    holder = make(None)
    traffic(holder)
    assert not [value for value in vars(holder).values() if isinstance(value, MetricsRegistry)]


@pytest.mark.parametrize("owner", OWNERS)
def test_bound_at_first_use_and_counted_as_by_name(owner):
    make, traffic = OWNERS[owner]
    registry = MetricsRegistry()
    holder = make(registry)
    # Attached, nothing happened yet: not one series, empty or otherwise.
    assert series(registry) == {}
    assert traffic(holder) == series(registry)


def test_network_traffic_series_appear_with_the_first_datagram():
    net = Network(seed=3)
    server, client = net.add_host("server"), net.add_host("client")
    server.bind(7, lambda datagram: datagram.payload)
    assert not net.metrics.instruments("net.datagrams_total")
    assert not net.metrics.instruments("net.bytes_total")
    assert client.rpc(server.address, 7, b"12345") == b"12345"
    # The request lands on port 7; the reply on the caller's own port.
    assert net.metrics.total("net.datagrams_total") == 2
    assert net.metrics.total("net.datagrams_total", port=7) == 1
    assert net.metrics.total("net.bytes_total", port=7) == 5
    # Zeroed in place, the held series are still the registry's.
    net.reset_stats()
    assert net.metrics.total("net.datagrams_total") == 0
    client.rpc(server.address, 7, b"123")
    assert net.metrics.total("net.bytes_total", port=7) == 3
    assert not net.metrics.instruments("net.drops_total")
