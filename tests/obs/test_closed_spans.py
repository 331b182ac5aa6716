"""Closed spans are read-only records kept as rows of columns, audit
events are rows too, and the obs plane's retained bytes per closed span
and per audit event stay under their gates."""

import copy
import gc
import tracemalloc

import pytest

from repro.core import KerberosError
from repro.netsim import Network, SimClock, Unreachable
from repro.netsim.faults import Loss
from repro.obs import AuditLog, MetricsRegistry, TraceContext
from repro.obs.tracing import ClosedSpan, Tracer
from repro.realm import Realm, RealmTopology
from repro.runtime import WorkQueue, WorkQueueConfig

pytestmark = pytest.mark.obs

WRITES = (
    lambda attrs: attrs.__setitem__("new", 1),
    lambda attrs: attrs.__delitem__("client"),
    lambda attrs: attrs.update(new=1),
    lambda attrs: attrs.setdefault("new", 1),
    lambda attrs: attrs.pop("client"),
    lambda attrs: attrs.clear(),
)


def closed(tracer, how, name="op", **attrs):
    if how == "end_span":
        return tracer.end_span(tracer.start_span(name, **attrs))
    return tracer.close_span(tracer.open_span(name, **attrs))


class TestClosedSpanIsReadOnly:
    @pytest.mark.parametrize("how", ["end_span", "close_span"])
    def test_writing_after_close_raises(self, how):
        tracer = Tracer(SimClock())
        span = closed(tracer, how, client="jis", port=750)
        for write in WRITES:
            with pytest.raises(TypeError):
                write(span.attrs)
        assert span.attrs == {"client": "jis", "port": 750}

    def test_record_reads_like_the_dict_it_was(self):
        tracer = Tracer(SimClock())
        span = tracer.open_span("op", b=2, a=1)
        span.attrs["c"] = None
        as_dict = dict(span.attrs)
        tracer.close_span(span)
        attrs = span.attrs
        assert list(attrs) == ["b", "a", "c"]
        assert list(attrs.items()) == list(as_dict.items())
        assert attrs == as_dict and as_dict == attrs
        assert attrs["a"] == 1 and attrs.get("c", 0) is None
        assert attrs.get("z") is None and "z" not in attrs and "b" in attrs
        assert len(attrs) == 3 and repr(attrs) == repr(as_dict)
        with pytest.raises(KeyError):
            attrs["z"]

    def test_spans_with_one_key_set_share_its_tuple(self):
        tracer = Tracer(SimClock())
        a = closed(tracer, "close_span", leg="request", port=750)
        b = closed(tracer, "end_span", leg="reply", port=88)
        assert a._attrs[0] is b._attrs[0]
        assert closed(tracer, "end_span").attrs == {}
        # A record of plain values leaves the collector's lists: its keys
        # tuple on the first pass, the record itself on the next.
        gc.collect()
        gc.collect()
        assert not gc.is_tracked(a._attrs)

    def test_detached_span_still_times(self):
        clock = SimClock()
        tracer = Tracer(clock)
        tracer.enabled = False
        span = tracer.start_span("op", client="jis")
        clock.advance(1.5)
        assert tracer.end_span(span).duration == pytest.approx(1.5)
        leg = tracer.open_span("leg", start=2.0)
        assert tracer.close_span(leg, end=2.25).duration == pytest.approx(0.25)
        assert tracer.spans == [] and span.attrs == {"client": "jis"}


class TestAttrsWrittenBeforeCloseSurvive:
    def test_span_error(self):
        tracer = Tracer(SimClock())
        with pytest.raises(ValueError):
            with tracer.span("op") as span:
                raise ValueError("boom")
        assert span.attrs == {"error": "ValueError: boom"}

    def test_transit_dropped(self):
        net = Network(latency=0.001)
        server, client = net.add_host("server"), net.add_host("client")
        server.bind(7, lambda datagram: b"ok")
        net.faults.add(Loss(1.0))
        with pytest.raises(Unreachable):
            with net.tracer.span("op"):
                client.rpc(server.address, 7, b"x")
        (leg,) = [s for s in net.tracer.spans if s.name == "net.transit"]
        assert leg.attrs == {
            "leg": "request", "dst": str(server.address), "port": 7,
            "dropped": "loss",
        }

    def test_queued_kdc_span(self):
        net = Network(latency=0.001, seed=7)
        queue = WorkQueueConfig(workers=1, batch_size=4)
        realm = Realm(net, "ATHENA.MIT.EDU", topology=RealmTopology(kdc_queue=queue))
        realm.add_user("jis", "jis-pw")
        realm.workstation().client.kinit("jis", "jis-pw")
        (kdc,) = [s for s in net.tracer.spans if s.name == "kdc.as"]
        assert list(kdc.attrs)[:5] == [
            "host", "queue_wait", "service_time", "batch_size", "crypto_ops",
        ]
        assert len(kdc.attrs) == 12
        assert kdc.attrs["queue_wait"] >= 0 and kdc.attrs["service_time"] > 0


def fields(span):
    return (
        span.name, span.span_id, span.parent_id, span.request_id,
        span.start, span.end, dict(span.attrs),
    )


def written(name, span_id, context, time, record):
    """The fields of a span written after the fact, from what
    ``record_instants`` was handed."""
    keys, *values = record
    return (
        name, span_id, context.span_id, context.trace_id, time, time,
        dict(zip(keys, values)),
    )


class TestRowsReadAsSpans:
    def test_a_recorded_run_reads_back_field_for_field(self, monkeypatch):
        """Every span a queued realm's logins record — closed ones and
        the KDC's handler spans, written a batch at a time — reads back
        from its row with the fields it was recorded with, in recording
        order."""
        net = Network(latency=0.001, seed=7)
        recorded = []
        close, record_instants = Tracer.close_span, Tracer.record_instants

        def keep_closed(tracer, span, end=None):
            recorded.append(fields(close(tracer, span, end)))
            return span

        def keep_written(tracer, names, contexts, records):
            # The ids the call will draw, from a copy of the counter.
            first = next(copy.copy(tracer._span_ids))
            now = tracer.clock.now()
            recorded.extend(
                written(name, first + offset, context, now, record)
                for offset, (name, context, record)
                in enumerate(zip(names, contexts, records))
            )
            record_instants(tracer, names, contexts, records)

        monkeypatch.setattr(Tracer, "close_span", keep_closed)
        monkeypatch.setattr(Tracer, "record_instants", keep_written)
        queue = WorkQueueConfig(workers=1, batch_size=4)
        realm = Realm(net, "ATHENA.MIT.EDU", topology=RealmTopology(kdc_queue=queue))
        realm.add_user("jis", "jis-pw")
        with pytest.raises(KerberosError):
            realm.workstation().client.kinit("jis", "wrong-pw")
        realm.workstation().client.kinit("jis", "jis-pw")
        rows = net.tracer.spans
        recorded.sort(key=lambda span_fields: span_fields[1])
        assert len(rows) == len(recorded) == 10
        assert [fields(row) for row in rows] == recorded
        assert all(type(row) is ClosedSpan for row in rows)
        handlers = [row for row in rows if row.name == "kdc.as"]
        assert len(handlers) == 2 and all(row.duration == 0.0 for row in handlers)
        assert {row.name for row in rows} >= {"kdc.as", "kdc.queue.wait", "net.transit"}
        assert [fields(row) for row in rows[-2:]] == recorded[-2:]
        assert fields(rows[-1]) == recorded[-1] and rows == list(rows)
        roots = [row for row in rows if row.parent_id is None]
        assert [fields(root) for root in net.tracer.roots()] == [
            span_fields for span_fields in recorded if span_fields[2] is None
        ] == list(map(fields, roots))
        assert [fields(span) for span in net.tracer.by_request(roots[0].request_id)] == [
            span_fields for span_fields in recorded
            if span_fields[3] == roots[0].request_id
        ]
        assert net.tracer.request_ids() == list(
            dict.fromkeys(span_fields[3] for span_fields in recorded)
        )

    def test_a_closed_row_is_frozen(self):
        tracer = Tracer(SimClock())
        with tracer.span("op", client="jis") as span:
            pass
        (row,) = tracer.spans
        assert row == span and row is not span and hash(row) == hash(span)
        assert row.finished and row.duration == 0.0
        assert row.context() == span.context()
        assert repr(row) == repr(span)
        with pytest.raises(AttributeError):
            row.end = 1.0
        with pytest.raises(TypeError):
            row.attrs["client"] = "mallory"
        with pytest.raises(TypeError):
            tracer.spans[0] = row

    def test_an_open_row_reads_as_its_live_span(self):
        tracer = Tracer(SimClock())
        leg = tracer.open_span("leg", port=88)
        assert tracer.spans[0] is leg
        leg.attrs["dropped"] = "loss"
        tracer.close_span(leg, end=0.5)
        assert tracer.spans[0] is not leg and tracer.spans[0] == leg
        assert tracer.spans[0].attrs == {"port": 88, "dropped": "loss"}

    def test_clear_keeps_a_span_open_off_the_stack(self):
        """A transit leg or queue wait in flight when the tracer is
        cleared is recorded when it closes."""
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("done"):
            pass
        leg = tracer.open_span("net.transit", leg="request")
        with tracer.span("outer") as outer:
            tracer.clear()
            clock.advance(0.25)
            tracer.close_span(leg)
        assert [row.name for row in tracer.spans] == ["net.transit", "outer"]
        assert tracer.spans[0] == leg and tracer.spans[0].duration == 0.25
        assert tracer.spans[1] == outer


def twins(max_spans):
    """Two tracers on one clock, each reporting to its own registry."""
    clock = SimClock()
    pair = []
    for _ in range(2):
        tracer = Tracer(clock, max_spans=max_spans)
        tracer.metrics = MetricsRegistry()
        pair.append(tracer)
    return clock, pair


#: Handler spans as a batch writes them: name, context, record.
ITEMS = [
    ("kdc.as", TraceContext("req-000007", 3), (("host", "n"), "kerberos", 4)),
    ("kdc.tgs", None, (("host", "n", "error"), "kerberos", 4, "KerberosError: x")),
    ("kdc.as", TraceContext("req-000008", None), (("host", "n"), "kerberos", 4)),
    ("kdc.other", None, (("host", "n", "error"), "kerberos", 4, "KerberosError: y")),
]


def one_pair_each(tracer, items):
    """What ``record_instants`` stands for: an open/close pair per item."""
    for name, context, (keys, *values) in items:
        tracer.close_span(tracer.open_span(name, context, **dict(zip(keys, values))))


class TestSpansWrittenAfterTheFact:
    @pytest.mark.parametrize("max_spans", [100, 3, 0], ids=["room", "overflow", "full"])
    def test_a_batch_records_what_a_pair_per_item_would(self, max_spans):
        """Ids, fresh trace ids, parents, times, attributes, the
        ``max_spans`` cut and the span counters all match; the next
        span's id continues past every item, dropped ones included."""
        clock, (batch, paired) = twins(max_spans)
        for tracer in (batch, paired):
            with tracer.span("before"):
                pass
        clock.advance(0.5)
        names, contexts, records = map(list, zip(*ITEMS))
        batch.record_instants(names, contexts, records)
        one_pair_each(paired, ITEMS)
        assert list(map(fields, batch.spans)) == list(map(fields, paired.spans))
        assert len(batch.spans) == min(max_spans, 1 + len(ITEMS))
        assert batch.metrics.snapshot() == paired.metrics.snapshot()
        assert batch.metrics.total("trace.spans_dropped_total") == max(
            0, 1 + len(ITEMS) - max_spans
        )
        assert batch.start_span("after").span_id == paired.start_span("after").span_id == 6
        assert batch.new_context() == paired.new_context()

    def test_a_batch_keeps_one_keys_tuple_per_key_set(self):
        tracer = Tracer(SimClock())
        first = closed(tracer, "close_span", host="kerberos", n=4)
        tracer.record_instants(["kdc.as"], [None], [(("host", "n"), "kerberos", 4)])
        assert tracer.spans.records[-1][0] is first._attrs[0]

    def test_a_disabled_tracer_records_nothing_and_draws_no_id(self):
        clock, (batch, paired) = twins(100)
        for tracer in (batch, paired):
            tracer.enabled = False
        names, contexts, records = map(list, zip(*ITEMS))
        batch.record_instants(names, contexts, records)
        one_pair_each(paired, ITEMS)
        for tracer in (batch, paired):
            assert tracer.spans == []
            assert tracer.metrics.snapshot() == MetricsRegistry().snapshot()
            tracer.enabled = True
            span = tracer.start_span("after")
            assert (span.span_id, span.request_id) == (1, "req-000001")


class TestAuditRows:
    def test_events_read_back_equal_in_seq_order(self):
        clock = SimClock()
        log = AuditLog(clock, max_events=5)
        emitted = []
        for i, kind in enumerate(
            ("auth_success", "auth_failure", "auth_success", "replay_detected",
             "auth_success", "auth_failure")
        ):
            clock.advance(0.5)
            emitted.append(log.emit(
                kind, host=f"h{i % 2}", principal=f"user{i % 3}@ATHENA",
                trace=f"req-{i % 2:06d}" if i else None, detail=f"i={i}",
            ))
        kept = emitted[:5]  # the sixth is past max_events: counted, not kept
        assert log.events() == kept and len(log) == 5
        assert [e.seq for e in log.events()] == [1, 2, 3, 4, 5]
        assert emitted[5].seq == 6
        assert log.events("auth_success") == [kept[0], kept[2], kept[4]]
        assert log.count("auth_success") == 3 and log.count() == 5
        assert log.count("acl_denial") == 0
        assert log.for_trace("req-000001") == [kept[1], kept[3]]
        assert log.for_trace("") == [kept[0]]
        assert log.format() == "\n".join(e.format() for e in kept)
        log.clear()
        assert log.events() == [] and log.count() == 0
        assert log.emit("acl_denial").seq == 7

    @pytest.mark.parametrize("max_events", [10, 3], ids=["room", "overflow"])
    def test_a_run_records_what_one_emit_each_would(self, max_events):
        clock = SimClock()
        run, single = (AuditLog(clock, MetricsRegistry(), max_events) for _ in range(2))
        principals = ["jis@ATHENA", "bcn@ATHENA", "jis@ATHENA", ""]
        traces = [TraceContext("req-000001", 2), None, "req-000003", None]
        details = ["kind=as", "kind=tgs", "kind=as", "kind=tgs"]
        for log in (run, single):
            log.emit("auth_failure", host="kerberos", detail="kind=as")
        clock.advance(0.5)
        last = run.emit_run("auth_success", "kerberos", principals, traces, details)
        for principal, trace, detail in zip(principals, traces, details):
            last_single = single.emit("auth_success", "kerberos", principal, trace, detail)
        assert last == last_single and last.seq == 5
        assert run.events() == single.events()
        assert len(run) == min(max_events, 5)
        assert run.metrics.snapshot() == single.metrics.snapshot()
        assert run.emit("acl_denial").seq == single.emit("acl_denial").seq == 6


# -- retained bytes -------------------------------------------------------------

RECORDS = 1000


def kept_per_record(record) -> float:
    """Bytes still allocated after ``record(RECORDS)`` runs, per record.
    tracemalloc counts requested sizes, so the figure repeats exactly."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        record(RECORDS)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / RECORDS


def transit_spans():
    """One-way traced sends: each keeps one 3-attribute transit span."""
    net = Network(latency=0.001)
    server, client = net.add_host("server"), net.add_host("client")
    server.bind(7, lambda datagram: None)
    client.send(server.address, 7, b"warm")
    net.runtime.run_until_idle()
    net.tracer.clear()

    def record(count):
        with net.tracer.span("op"):
            for _ in range(count):
                client.send(server.address, 7, b"x")
        net.runtime.run_until_idle()

    return record


def wait_spans():
    """Queued items: each keeps one 0-attribute ``kdc.queue.wait`` span."""
    net = Network()
    queue = WorkQueue(
        net.runtime, WorkQueueConfig(workers=1, batch_size=8, queue_limit=RECORDS),
        process=lambda batch: None, label="kdc.queue", tracer=net.tracer,
    )
    context = TraceContext("req-000001", 1)

    def record(count):
        for _ in range(count):
            queue.submit(None, trace=context)
            net.runtime.run_for(0.0001)
        net.runtime.run_until_idle()

    return record


def kdc_spans():
    """The queued KDC's 12-attribute handler span, written as the KDC
    writes it: a batch of 8 rows at a time, per-item waits, per-batch
    stage counts."""
    clock = SimClock()
    tracer = Tracer(clock)
    context = TraceContext("req-000001", 1)
    keys = (
        "host", "queue_wait", "service_time", "batch_size", "crypto_ops",
        "stage_decoded", "stage_lookups_saved", "stage_sealed",
        "stage_interleaved_blocks", "stage_skeleton_hits",
        "stage_tgt_memo_hits", "stage_encoded_bytes",
    )
    stage = (8, 0, 8, 96, 8, 0, 8 * 301)

    def record(count):
        for batch in range(0, count, 8):
            clock.advance(1e-3)
            tracer.record_instants(["kdc.as"] * 8, [context] * 8, [
                (keys, "kerberos", round(i * 1e-4, 9),
                 round(batch * 1e-5 + 1e-3, 9), 8, 3, *stage)
                for i in range(batch, batch + 8)
            ])

    return record


def audit_events():
    """KDC success events: each request names its client afresh."""
    net = Network()
    context = TraceContext("req-000001", 1)

    def record(count):
        for i in range(count):
            net.clock.advance(0.0001)
            net.audit.emit(
                "auth_success", host="kerberos",
                principal=f"user{i % 100}@ATHENA.MIT.EDU", trace=context,
                detail="kind=as",
            )

    return record


#: Bytes kept per record (Python 3.11 reads 133 / 61 / 250 / 72 with a
#: record per row of columns; a ``Span`` object per record read 215 /
#: 146 / 334, a slotted ``AuditEvent`` per event 153).
GATES = {
    transit_spans: 140,
    wait_spans: 70,
    kdc_spans: 260,
    audit_events: 80,
}


@pytest.mark.parametrize("shape", list(GATES), ids=lambda f: f.__name__)
def test_retained_bytes_per_record(shape):
    assert kept_per_record(shape()) <= GATES[shape]
