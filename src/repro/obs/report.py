"""One merged realm report: latency digests, traces and their wire,
audit log.

Run:  python -m repro.obs.report

The four observability planes each have their own exporter; operators
want one page.  :func:`render_report` merges them — per-span-name
percentile digests, the recorded trace trees each followed by the
datagrams that carried it, the security audit log, and the live
counters — into a single deterministic text report.
:func:`demo` drives a small realm through a login, a service use, a
failed authentication, and a caught replay, recording every plane; this
module's ``main`` prints its report and ``python -m repro.obs.selfcheck``
checks it.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.obs.export import format_digests, format_span_tree, span_digests

#: Trace trees the report shows; the header counts every trace.
MAX_TRACES = 10


def render_report(
    metrics=None,
    tracer=None,
    audit=None,
    wire=None,
) -> str:
    """Merge whichever planes are supplied into one text report.

    With ``wire`` (a :class:`repro.obs.wire.WireRecorder`), each trace's
    span tree is followed by the datagrams that carried its trace ID,
    and the datagrams no span sent close the section under
    ``(no active span)``.  Deterministic for a given run: section order
    is fixed, traces render in trace-ID order.
    """
    sections: List[str] = []
    datagrams = wire.by_request() if wire is not None else {}

    def wire_lines(rid: Optional[str]) -> None:
        if rid in datagrams:
            sections.append("\n".join("    " + r.format() for r in datagrams[rid]))

    if tracer is not None:
        digests = span_digests(tracer)
        if digests:
            sections.append("== span latency digests ==")
            sections.append(format_digests(digests))
        rids = tracer.request_ids()
        shown = rids[:MAX_TRACES]
        if shown:
            header = f"== traces ({len(shown)} of {len(rids)}) =="
            sections.append(header)
            for rid in shown:
                sections.append(format_span_tree(tracer, request_id=rid))
                wire_lines(rid)
    if None in datagrams:
        sections.append("(no active span)")
        wire_lines(None)

    if audit is not None and len(audit):
        sections.append(f"== audit log ({len(audit)} events) ==")
        sections.append(audit.format())

    if metrics is not None:
        counters = [
            inst
            for inst in metrics.instruments()
            if type(inst).__name__ == "Counter" and inst.value
        ]
        sections.append(f"== metrics ({len(counters)} live counter series) ==")

    return "\n".join(sections) + "\n"


def demo() -> dict:
    """Drive a small realm through the interesting paths, every plane
    recording: a traced login and service use, a failed authentication
    (unknown principal), and a caught replay of the captured TGS-REQ.
    Returns the planes as :func:`render_report`'s keyword arguments."""
    from repro.core.errors import KerberosError
    from repro.netsim import Network
    from repro.realm import Realm
    from repro.threat.replayer import Replayer

    net = Network(latency=0.001)
    realm = Realm(net, "REPORT.REALM")
    realm.add_user("jis", "jis-pw")
    service, _key = realm.add_service("rlogin", "priam")

    wire = Replayer(net)  # the wire plane is the attacker's tape

    ws = realm.workstation()
    with net.tracer.span("user.session", user="jis"):
        ws.client.kinit("jis", "jis-pw")
        ws.client.mk_req(service)

    intruder = realm.workstation()
    try:
        intruder.client.kinit("mallory", "guess")
    except KerberosError:
        pass
    wire.replay(2)  # AS-REQ, AS-REP, then the TGS-REQ, byte-identical

    return dict(metrics=net.metrics, tracer=net.tracer, audit=net.audit,
                wire=wire)


def main(argv: Optional[List[str]] = None) -> int:
    sys.stdout.write(render_report(**demo()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
