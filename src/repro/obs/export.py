"""Exporters: Prometheus-style text, JSON snapshots, span trees.

Everything here renders from plain data (a registry snapshot dict, a
list of spans), so the output is deterministic whenever the inputs are —
which they are, under the seeded simulated clock.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer


# -- Prometheus text format ---------------------------------------------------

def _prom_name(name: str) -> str:
    """Dotted registry names become underscore Prometheus names."""
    return name.replace(".", "_").replace("-", "_")


def _escape_label_value(value: object) -> str:
    """Prometheus exposition-format escaping: backslash, double quote,
    and newline must be escaped inside label values, in that order
    (escaping the escape character first keeps the result unambiguous)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_prom_name(k)}="{_escape_label_value(v)}"'
        for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The classic exposition format: ``# TYPE`` headers, one sample per
    line, histograms expanded to ``_bucket``/``_sum``/``_count``.

    Output is deterministic: the snapshot sorts series by (name,
    labels), each histogram series renders its buckets in ascending
    ``le`` order followed by ``+Inf``, ``_sum``, ``_count`` — the spec
    order — and label values are escaped per the exposition format."""
    snap = registry.snapshot()
    lines: List[str] = []
    typed = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            lines.append(f"# TYPE {_prom_name(name)} {kind}")
            typed.add(name)

    for entry in snap["counters"]:
        header(entry["name"], "counter")
        lines.append(
            f"{_prom_name(entry['name'])}{_prom_labels(entry['labels'])} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snap["gauges"]:
        header(entry["name"], "gauge")
        lines.append(
            f"{_prom_name(entry['name'])}{_prom_labels(entry['labels'])} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snap["histograms"]:
        name = entry["name"]
        header(name, "histogram")
        base = _prom_name(name)
        for le, count in entry["buckets"]:
            lines.append(
                f"{base}_bucket"
                f"{_prom_labels(entry['labels'], {'le': _format_value(le)})} "
                f"{count}"
            )
        lines.append(
            f"{base}_bucket{_prom_labels(entry['labels'], {'le': '+Inf'})} "
            f"{entry['count']}"
        )
        lines.append(
            f"{base}_sum{_prom_labels(entry['labels'])} "
            f"{_format_value(entry['sum'])}"
        )
        lines.append(
            f"{base}_count{_prom_labels(entry['labels'])} {entry['count']}"
        )
    return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    """Integers render without a trailing .0 so counters read naturally."""
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


# -- JSON snapshots ------------------------------------------------------------

def write_json_snapshot(
    registry: MetricsRegistry,
    path,
    now: float,
    extra: Optional[dict] = None,
) -> dict:
    """Write the registry snapshot as JSON: sorted keys, stamped with
    the *simulated* clock only.

    Returns the dict that was written.  ``extra`` lets a benchmark attach
    its own summary numbers alongside the metric series.
    """
    snap = registry.snapshot(now=now)
    if extra:
        snap["bench"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return snap


# -- span formatting -----------------------------------------------------------

def format_span_tree(
    tracer: Tracer, request_id: Optional[str] = None
) -> str:
    """An indented, one-line-per-span rendering of recorded traces.

    Each line carries the request ID, so output can be correlated with
    :class:`repro.obs.wire.WireRecorder` lines (which tag datagrams with
    the trace ID they carried across the wire);
    :func:`repro.obs.report.render_report` prints the two interleaved.
    """
    spans = (
        tracer.by_request(request_id)
        if request_id is not None
        else list(tracer.spans)
    )
    by_parent: dict = {}
    ids = {s.span_id for s in spans}
    roots: List[Span] = []
    for span in spans:
        if span.parent_id is None or span.parent_id not in ids:
            roots.append(span)
        else:
            by_parent.setdefault(span.parent_id, []).append(span)

    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        attrs = " ".join(
            f"{k}={v}" for k, v in sorted(span.attrs.items())
        )
        end = f"{span.end:.3f}" if span.finished else "open"
        lines.append(
            f"{span.request_id}  {indent}{span.name} "
            f"[{span.start:.3f} -> {end}, {span.duration * 1000:.3f}ms]"
            + (f"  {attrs}" if attrs else "")
        )
        for child in by_parent.get(span.span_id, []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


# -- Chrome trace-event JSON (Perfetto / chrome://tracing) ---------------------

def chrome_trace_events(tracer: Tracer) -> dict:
    """Recorded spans as the Chrome trace-event format.

    Complete (``ph: "X"``) events with microsecond timestamps; each
    simulated host becomes a process (``pid``), each trace a thread
    (``tid``), so Perfetto lays a cross-host exchange out as lanes per
    machine.  Spans without a ``host`` attribute land on a synthetic
    ``realm`` process.  Everything is derived from recorded spans and
    deterministic counters, so same seed → byte-identical export.
    """
    finished = [s for s in tracer.spans if s.finished]
    hosts = sorted({str(span.attrs.get("host", "realm")) for span in finished})
    pid_of = {host: i + 1 for i, host in enumerate(hosts)}
    tid_of = {rid: i + 1 for i, rid in enumerate(tracer.request_ids())}

    events: List[dict] = []
    for host in hosts:
        events.append({
            "args": {"name": host},
            "name": "process_name",
            "ph": "M",
            "pid": pid_of[host],
            "tid": 0,
        })
    for span in finished:
        host = str(span.attrs.get("host", "realm"))
        args = {
            k: v for k, v in sorted(span.attrs.items()) if k != "host"
        }
        args["trace_id"] = span.request_id
        events.append({
            "args": args,
            "cat": span.name.split(".", 1)[0],
            "dur": round(span.duration * 1e6, 3),
            "name": span.name,
            "ph": "X",
            "pid": pid_of[host],
            "tid": tid_of.get(span.request_id, 0),
            "ts": round(span.start * 1e6, 3),
        })
    return {"displayTimeUnit": "ms", "traceEvents": events}


def render_chrome_trace(tracer: Tracer) -> str:
    """:func:`chrome_trace_events` serialized with stable key order."""
    return json.dumps(
        chrome_trace_events(tracer), indent=2, sort_keys=True
    ) + "\n"


def write_chrome_trace(tracer: Tracer, path) -> str:
    text = render_chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


# -- per-exchange-type percentile digests --------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The classic nearest-rank percentile (no interpolation): exact,
    deterministic, and meaningful even for tiny samples; 0.0 when there
    are none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def span_digests(
    tracer: Tracer, quantiles=(0.5, 0.95, 0.99)
) -> dict:
    """Per-span-name duration digests: ``{name: {count, sum, p50, p95,
    p99}}`` over finished spans — the per-exchange-type latency summary
    Section 9's load numbers call for."""
    durations: dict = {}
    for span in tracer.spans:
        if span.finished:
            durations.setdefault(span.name, []).append(span.duration)
    out: dict = {}
    for name in sorted(durations):
        values = sorted(durations[name])
        entry = {"count": len(values), "sum": sum(values)}
        for q in quantiles:
            entry[f"p{int(q * 100)}"] = percentile(values, q)
        out[name] = entry
    return out


def format_digests(digests: dict) -> str:
    """A fixed-width table of :func:`span_digests` output."""
    if not digests:
        return "(no finished spans)"
    header = (
        f"{'span':<24} {'count':>6} {'p50(ms)':>9} "
        f"{'p95(ms)':>9} {'p99(ms)':>9}"
    )
    lines = [header]
    for name, d in digests.items():
        lines.append(
            f"{name:<24} {d['count']:>6} {d['p50'] * 1000:>9.3f} "
            f"{d['p95'] * 1000:>9.3f} {d['p99'] * 1000:>9.3f}"
        )
    return "\n".join(lines)
