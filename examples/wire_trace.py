"""Figure 9, as seen on the wire — and as seen by the observability layer.

Attaches a wire recorder to the network and prints the annotated
datagram trace of a complete login-and-use sequence — every cleartext
field visible, every sealed blob opaque, exactly what an eavesdropper
gets.  Then prints the same run from the inside: the span tree
correlated with the wire lines by request ID, and the metric counters
the run left behind.

Run:  python examples/wire_trace.py
"""

from repro.apps.kerberized import KerberizedChannel, Protection
from repro.netsim import Network
from repro.realm import Realm
from repro.obs.report import render_report
from repro.obs.wire import WireRecorder
from repro.apps.pop import PopClient, PopServer


def main() -> None:
    net = Network(latency=0.002)  # 2 ms per hop, for readable timestamps
    realm = Realm(net, "ATHENA.MIT.EDU")
    realm.add_user("jis", "jis-pw")
    pop_service, _ = realm.add_service("pop", "po10")
    pop_host = net.add_host("po10")
    pop = PopServer(pop_service, realm.srvtab_for(pop_service)).attach(pop_host)
    pop.deliver("jis", b"Subject: hello\r\n\r\nfrom the wire")

    wire = WireRecorder(net)
    ws = realm.workstation()

    print("=== The trace of: kinit; read one mail message ===\n")
    with net.tracer.span("user.session", user="jis"):
        ws.client.kinit("jis", "jis-pw")
        client = PopClient(ws.client, pop_service, pop_host.address)
        client.retrieve(1)
        client.quit()

    print(wire.format())
    print(f"\n{len(wire)} datagrams total.")
    print("Note what is readable (names, realms, lifetimes) and what is")
    print("not (every ticket, authenticator, and mail body: 'sealed').")

    print("\n=== The same run, correlated: spans + wire, by request ID ===\n")
    print(render_report(tracer=net.tracer, wire=wire), end="")

    print("\n=== What the metrics registry recorded ===\n")
    m = net.metrics
    for line in (
        f"datagrams on the wire:  {m.total('net.datagrams_total'):.0f}"
        f"  ({m.total('net.bytes_total'):.0f} bytes)",
        f"KDC requests:           AS={m.total('kdc.requests_total', kind='as'):.0f}"
        f"  TGS={m.total('kdc.requests_total', kind='tgs'):.0f}"
        f"  (all OK: {m.total('kdc.outcomes_total', code='OK'):.0f})",
        f"replay checks:          fresh={m.total('replay.checks_total', result='fresh'):.0f}",
        f"credential cache:       hit={m.total('credcache.lookups_total', result='hit'):.0f}"
        f"  miss={m.total('credcache.lookups_total', result='miss'):.0f}",
    ):
        print("  " + line)


if __name__ == "__main__":
    main()
