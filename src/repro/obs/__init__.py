"""repro.obs — realm-wide metrics, tracing, audit, and the wire.

The observability layer for the reproduction, four planes deep:

* a dependency-free metrics registry (:class:`MetricsRegistry` —
  counters, gauges, histograms keyed by name + label tuples);
* a span tracer (:class:`Tracer`) whose :class:`TraceContext` propagates
  across simulated wire hops as out-of-band datagram metadata, so one
  Figure 9 login yields a single cross-host trace tree with net-transit,
  queue-wait, and service breakdown;
* an append-only security-event log (:class:`AuditLog` — auth
  success/failure, preauth failure, replay detected, ACL denial,
  tampered propagation, overload shed);
* the wire (:class:`repro.obs.wire.WireRecorder`), the one network tap:
  every datagram with its time and the trace ID it carries, rendered as
  Figure 9 lines — what the eavesdropper and the replayer record.  It
  imports the network, so it is imported as ``repro.obs.wire``.

Exporters render Prometheus-style text, JSON registry snapshots,
indented span trees, Chrome trace-event JSON
(Perfetto-loadable), and per-exchange-type percentile digests;
``python -m repro.obs.report`` merges all planes into one realm report.

Every :class:`repro.netsim.network.Network` owns one registry, tracer,
and audit log (``net.metrics`` / ``net.tracer`` / ``net.audit``); the
instrumented layers — netsim, the KDC, the replay and credential
caches, kprop/kpropd, the KDBM, the NFS server — all record into them.
See ``docs/OBSERVABILITY.md`` for the metric, span, and audit schema.

Smoke test: ``python -m repro.obs.selfcheck``.
"""

from repro.obs.audit import (
    AUDIT_KINDS,
    AuditError,
    AuditEvent,
    AuditLog,
)
from repro.obs.export import (
    chrome_trace_events,
    format_digests,
    format_span_tree,
    percentile,
    render_chrome_trace,
    render_prometheus,
    span_digests,
    write_json_snapshot,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    labels_key,
)
from repro.obs.tracing import (
    Span,
    TraceContext,
    Tracer,
    TracingError,
)

#: Simulated-seconds latency buckets for client exchanges and KDC work
#: (one network hop is milliseconds; a propagation round can take longer).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0,
)

#: Ticket-lifetime buckets in seconds: 5 min up to the paper's 8-hour
#: maximum ("currently 8 hours") and a generous tail.
LIFETIME_BUCKETS = (
    300.0, 1800.0, 3600.0, 7200.0, 14400.0, 21600.0, 28800.0, 86400.0,
)

__all__ = [
    "AUDIT_KINDS",
    "AuditError",
    "AuditEvent",
    "AuditLog",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "LIFETIME_BUCKETS",
    "MetricsError",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "TracingError",
    "chrome_trace_events",
    "format_digests",
    "format_span_tree",
    "labels_key",
    "percentile",
    "render_chrome_trace",
    "render_prometheus",
    "span_digests",
    "write_json_snapshot",
]
