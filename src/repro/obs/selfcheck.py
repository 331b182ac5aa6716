"""Smoke test for the observability layer.

Run:  python -m repro.obs.selfcheck

Exercises the registry, tracer, and exporters standalone, then drives
the report's demo realm (:func:`repro.obs.report.demo`: a full
AS→TGS→AP flow, a failed login, a caught replay) and checks every plane
it recorded: the span tree, the metric families, the audit events, the
wire, and the merged report.  Exits non-zero (with a message) on any
failure — cheap enough for CI.
"""

from __future__ import annotations

import sys

from repro.obs.export import format_span_tree, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


class _CountingClock:
    """A tick-per-read stand-in for SimClock, keeping this check
    independent of the rest of the package."""

    def __init__(self) -> None:
        self._t = 0.0

    def now(self) -> float:
        self._t += 0.001
        return self._t


def check_standalone() -> None:
    registry = MetricsRegistry()
    registry.counter("demo.requests_total", {"kind": "as"}).inc(3)
    registry.gauge("demo.cache_size").set(7)
    hist = registry.histogram("demo.latency_seconds", (0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        hist.observe(v)
    assert registry.total("demo.requests_total") == 3
    assert hist.count == 4 and hist.cumulative_buckets() == [
        (0.01, 1), (0.1, 2), (1.0, 3),
    ]

    text = render_prometheus(registry)
    assert 'demo_requests_total{kind="as"} 3' in text
    assert 'demo_latency_seconds_bucket{le="+Inf"} 4' in text

    tracer = Tracer(_CountingClock())
    with tracer.span("root") as root:
        with tracer.span("child", step=1):
            pass
    assert root.finished and len(tracer.by_request(root.request_id)) == 2
    tree = format_span_tree(tracer)
    assert "root" in tree and "child" in tree


def check_end_to_end() -> None:
    from repro.obs.report import demo, render_report

    planes = demo()
    tracer, m, wire = planes["tracer"], planes["metrics"], planes["wire"]
    rid = tracer.spans[0].request_id
    names = {s.name for s in tracer.by_request(rid)}
    for expected in (
        "user.session", "client.as_exchange", "kdc.as",
        "client.tgs_exchange", "kdc.tgs", "client.ap_request",
    ):
        assert expected in names, f"missing span {expected}: {names}"

    # Two logins and two TGS-REQs (one replayed) reach the KDC port;
    # all but the replay are answered on the client's ephemeral port.
    assert m.total("net.datagrams_total", port="750") == 4
    assert m.total("net.datagrams_total") == 7
    assert m.total("kdc.requests_total", kind="as") == 2
    assert m.total("kdc.outcomes_total", code="OK") == 2
    assert m.total("replay.checks_total", result="fresh") >= 1
    kinds = [e.kind for e in planes["audit"].events()]
    assert kinds.count("auth_failure") == kinds.count("replay_detected") == 1
    # The session's four datagrams carry its trace ID; the replay none.
    by_rid = wire.by_request()
    assert len(by_rid[rid]) == 4 and len(by_rid[None]) == 1

    report = render_report(**planes)
    for section in ("== span latency digests ==", "== traces (3 of 3) ==",
                    f"rid={rid}", "(no active span)", "== audit log (4 events) ==",
                    "== metrics"):
        assert section in report, f"report lacks {section!r}"


def main(argv=None) -> int:
    checks = [
        ("registry/tracer/exporters", check_standalone),
        ("demo realm, every plane", check_end_to_end),
    ]
    for label, check in checks:
        try:
            check()
        except Exception as exc:  # the whole point is a loud failure
            print(f"selfcheck FAILED at {label}: {exc}", file=sys.stderr)
            return 1
        print(f"selfcheck ok: {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
