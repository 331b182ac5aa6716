"""``python -m repro`` — a one-minute tour of the reproduction.

Runs the full Figure 9 protocol on a freshly built realm and prints each
step, then points at the examples and benchmarks for the rest.
"""

from repro.core import ReplayCache, krb_mk_rep, krb_rd_req
from repro.netsim import Network
from repro.realm import Realm, RealmTopology


def main() -> None:
    print(__doc__)
    net = Network()
    realm = Realm(
        net, "ATHENA.MIT.EDU", topology=RealmTopology(slaves_per_shard=1)
    )
    realm.add_user("you", "your-password")
    service, _ = realm.add_service("rlogin", "priam")
    srvtab = realm.srvtab_for(service)
    print(f"Built realm {realm.name}: master + 1 slave, KDBM, kprop.")

    ws = realm.workstation()
    tgt = ws.client.kinit("you", "your-password")
    print(f"[1] AS exchange  : TGT issued, lifetime {tgt.life/3600:.0f} h "
          f"(password never left the workstation)")

    request, cred, sent = ws.client.mk_req(service, mutual=True)
    print(f"[2] TGS exchange : ticket for {cred.service}")

    context = krb_rd_req(request, service, srvtab, ws.host.address,
                         net.clock.now(), replay_cache=ReplayCache())
    ws.client.rd_rep(krb_mk_rep(context), sent, cred)
    print(f"[3] AP exchange  : server authenticated {context.client}, "
          f"and proved itself back (mutual)")

    datagrams = net.metrics.total("net.datagrams_total")
    wire_bytes = net.metrics.total("net.bytes_total")
    print(f"\nNetwork traffic : {datagrams:.0f} datagrams, "
          f"{wire_bytes:.0f} bytes — all key material sealed.")
    print("\nMore: examples/*.py walk the paper's scenarios;")
    print("      pytest benchmarks/ -s regenerates every figure, "
          "one table row each.")


if __name__ == "__main__":
    main()
