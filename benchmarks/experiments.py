"""The paper's reproducible artifacts as one table: an experiment is a row.

A row (:class:`Experiment`) holds the experiment's id (``F5``, ``NFS``,
``RS``…, the ids of DESIGN.md's per-experiment index and EXPERIMENTS.md's
sections), its paper anchor, ``build`` (its world), ``act`` (what it does
to that world, returning the observed quantities by name) and ``expect``:
each observed quantity with the value it must equal or a :class:`Holds`
predicate it must satisfy.  Every quantity is a count, a byte size, a
digest, a verdict or a simulated-clock latency or ratio, so a seed
reproduces the whole table; how fast the code runs is the realm ledger's
question (``benchmarks/ledger/``), never a row's.  EXPERIMENTS.md is the
table's render (``benchmarks/render.py``).

    PYTHONPATH=src:. python -m pytest benchmarks/ -q -s [-k F5]

runs every row (or one) through ``test_experiments.py`` and prints what
each observed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Dict

import repro.scenarios as scenarios
from repro.apps.kerberized import KerberizedChannel
from repro.apps.nfs import AuthMode, MountDaemon, NfsCredential, NfsExportConfig, NfsServer
from repro.apps.nfs.client import NfsClient
from repro.core import (
    ApReply, ApRequest, AsRequest, KdcReply, KdcReplyBody, KerberosError,
    MessageType, ReplayCache, RetryPolicy, StaticLocator, TgsRequest, Ticket,
    build_authenticator, encode_message, kdbm_principal, krb_mk_rep, krb_mk_req, krb_rd_rep,
    krb_rd_req, seal_ticket, unseal_authenticator, unseal_ticket,
)
from repro.core.replay import CLOCK_SKEW
from repro.crypto import (
    DesKey, IntegrityError, KeyGenerator, Mode, cbc_decrypt, cbc_encrypt, cbc_mac, keycache,
    pcbc_decrypt, pcbc_encrypt, quad_cksum, seal, string_to_key, unseal,
)
from repro.crypto.modes import interleaved_blocks
from repro.database import ReadOnlyDatabase
from repro.database.schema import ATTR_REQUIRE_PREAUTH
from repro.encode import pack_frames
from repro.kdbm import KdbmClient, KdbmServer
from repro.netsim import Duplicate, IPAddress, Loss, Match, Network, Unreachable
from repro.netsim.ports import KERBEROS_PORT
from repro.obs import render_chrome_trace
from repro.principal import Principal, tgs_principal
from repro.realm import NfsFleet, NfsUserSpec, Realm, RealmTopology, link
from repro.runtime.workqueue import WorkQueueConfig
from repro.scenarios import SloSpec
from repro.scenarios.engine import START, Rebalance
from repro.threat import (
    Eavesdropper, MasqueradingServer, active_as_probe, steal_credentials,
    use_stolen_credential,
)

REALM = "ATHENA.MIT.EDU"
RLOGIN = Principal("rlogin", "priam", REALM)
JIS = Principal("jis", "", REALM)
WS_ADDR = IPAddress("18.72.0.100")
SEED = 1988
HOUR = 3600.0


# -- the row -----------------------------------------------------------------


@dataclass(frozen=True)
class Holds:
    """A predicate an observed quantity must satisfy, shown as ``text``."""

    text: str
    test: Callable[[object], bool]

    def __repr__(self) -> str:
        return self.text


def at_most(bound) -> Holds:
    return Holds(f"<= {bound}", lambda value: value <= bound)


def at_least(bound) -> Holds:
    return Holds(f">= {bound}", lambda value: value >= bound)


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact: ``act(build())`` observes exactly the
    quantities ``expect`` names.  ``paper`` is what the paper says and
    ``note`` how the row tests it; neither states a measured value, which
    EXPERIMENTS.md prints from ``expect`` (``python -m benchmarks.render``)."""

    id: str
    anchor: str
    build: Callable[[], object]
    act: Callable[[object], Dict[str, object]]
    expect: Dict[str, object]
    paper: str = ""
    note: str = ""

    def mismatches(self, observed: Dict[str, object]) -> Dict[str, tuple]:
        """``{name: (observed, expected)}`` for every quantity that is
        off, unexpected or missing; empty when the row reproduces."""
        return {
            name: (observed.get(name, "<not observed>"), self.expect.get(name, "<not expected>"))
            for name in sorted(set(observed) | set(self.expect), key=str)
            if not (name in observed and name in self.expect
                    and self._holds(observed[name], self.expect[name]))
        }

    @staticmethod
    def _holds(got, want) -> bool:
        return want.test(got) if isinstance(want, Holds) else got == want


# -- shared builders ---------------------------------------------------------


def athena(slaves: int = 0, seed: bytes = b"bench") -> Realm:
    """A realm with one user (jis) and one service (rlogin.priam)."""
    realm = Realm(Network(), REALM, seed=seed, topology=RealmTopology(slaves_per_shard=slaves))
    realm.add_user("jis", "jis-pw")
    realm.add_service("rlogin", "priam")
    if slaves:
        realm.propagate()
    return realm


def kinit(realm: Realm, user: str = "jis", password: str = "jis-pw"):
    ws = realm.workstation()
    ws.client.kinit(user, password)
    return ws


def refusal(fn) -> str:
    """``accepted``, or what refused: the error code of a
    :class:`KerberosError`, the class name of any other refusal."""
    try:
        fn()
    except KerberosError as err:
        return err.code.name
    except (Unreachable, ReadOnlyDatabase, IntegrityError) as err:
        return type(err).__name__
    return "accepted"


def kdc_datagrams(net: Network) -> float:
    return net.metrics.total("net.datagrams_total", port=str(KERBEROS_PORT))


# -- F2–F9: the protocol's figures ------------------------------------------

FIGURE_2 = {
    "bcn": ("bcn", "", ""),
    "treese.root": ("treese", "root", ""),
    "jis@LCS.MIT.EDU": ("jis", "", "LCS.MIT.EDU"),
    "rlogin.priam@ATHENA.MIT.EDU": ("rlogin", "priam", "ATHENA.MIT.EDU"),
}


def names_act(corpus):
    parsed = {text: Principal.parse(text) for text in corpus}
    return {
        "components": {text: (p.name, p.instance, p.realm) for text, p in parsed.items()},
        "round_trips": sum(str(p) == text for text, p in parsed.items()),
    }


def ticket_build():
    gen = KeyGenerator(seed=b"fig3")
    server_key, session = gen.session_key(), gen.session_key()
    ticket = Ticket(server=RLOGIN, client=JIS, address=WS_ADDR.as_int, timestamp=1000.0,
                    life=8 * HOUR, session_key=session.key_bytes)
    return gen, server_key, ticket


def ticket_act(world):
    gen, key, ticket = world
    blob = seal_ticket(ticket, key)
    tampers = [bytearray(blob) for _ in range(0, len(blob), 8)]
    for i, tampered in enumerate(tampers):
        tampered[8 * i] ^= 1
    return {
        "sealed_bytes": len(blob),
        "opens_with_server_key": unseal_ticket(blob, key) == ticket,
        "wrong_key_open": refusal(lambda: unseal_ticket(blob, gen.session_key())),
        "tampers_refused": (sum(refusal(lambda t=t: unseal_ticket(bytes(t), key)) != "accepted"
                                for t in tampers), len(tampers)),
    }


def authenticator_act(gen):
    key = gen.session_key()
    opened = unseal_authenticator(build_authenticator(JIS, WS_ADDR, 0.0, key), key)
    blob = build_authenticator(JIS, WS_ADDR, 500.0, key)
    presented = unseal_authenticator(blob, key)
    cache = ReplayCache()
    return {
        "opened_client": str(opened.client),
        "presentations_accepted": [
            cache.check_and_store(str(presented.client), presented.address,
                                  presented.timestamp, now=500.0) for _ in range(2)],
        "wrong_key_open": refusal(lambda: unseal_authenticator(blob, gen.session_key())),
    }


def as_act(realm):
    ws = realm.workstation()
    tgt = ws.client.kinit("jis", "jis-pw")
    realm.net.reset_stats()
    eve = Eavesdropper(realm.net)
    ws.client.kdestroy()
    ws.client.kinit("jis", "jis-pw")
    eve.detach()
    return {
        "tgt_life_h": tgt.life / HOUR,
        "datagrams_per_login": realm.net.metrics.total("net.datagrams_total"),
        "kdc_port_requests": realm.net.metrics.total("net.datagrams_total", port="750"),
        "password_on_wire": eve.saw_bytes(b"jis-pw"),
        "password_key_on_wire": eve.saw_bytes(string_to_key("jis-pw").key_bytes),
        "wrong_password": refusal(lambda: ws.client.kinit("jis", "wrong-password")),
    }


def ap_act(realm):
    key = realm.service_key(RLOGIN)
    ws = kinit(realm)
    cred = ws.client.get_credential(RLOGIN)
    now, addr = realm.net.clock.now(), ws.host.address

    def request(at, address=addr):
        return krb_mk_req(cred.ticket, cred.session_key, ws.client.principal, address, now=at)

    cache = ReplayCache()
    replayed, _, _ = ws.client.mk_req(RLOGIN)
    krb_rd_req(replayed, RLOGIN, key, addr, now, cache)
    thief = realm.net.add_host("thief").address
    return {
        "served_client": krb_rd_req(request(now), RLOGIN, key, addr, now).client.name,
        "exact_replay": refusal(lambda: krb_rd_req(replayed, RLOGIN, key, addr, now, cache)),
        "older_than_skew": refusal(
            lambda: krb_rd_req(request(now), RLOGIN, key, addr, now + CLOCK_SKEW + 1)),
        "within_skew": refusal(
            lambda: krb_rd_req(request(now + 1), RLOGIN, key, addr, now + CLOCK_SKEW - 1)),
        "from_wrong_host": refusal(
            lambda: krb_rd_req(request(now + 2, thief), RLOGIN, key, thief, now + 2)),
    }


def mutual_act(realm):
    key = realm.service_key(RLOGIN)
    ws = kinit(realm)
    now = realm.net.clock.now()
    request, cred, sent = ws.client.mk_req(RLOGIN, mutual=True)
    context = krb_rd_req(request, RLOGIN, key, ws.host.address, now)
    genuine = krb_mk_rep(context)
    impostor = ApReply.build(sent, KeyGenerator(seed=b"impostor").session_key())
    return {
        "server_proof": refusal(lambda: krb_rd_rep(genuine, sent, cred.session_key)),
        "impostor_reply": refusal(lambda: krb_rd_rep(impostor, sent, cred.session_key)),
        "proof_for_other_request": refusal(
            lambda: krb_rd_rep(genuine, sent + 10.0, cred.session_key)),
    }


def tgs_act(realms):
    realm, sweep = realms
    ws = kinit(realm)
    tgt = ws.client.cache.tgt(realm.name)
    eve = Eavesdropper(realm.net)
    cred = ws.client._tgs_exchange(realm.name, tgt, RLOGIN, None)
    eve.detach()
    ws2, lives, age = kinit(sweep), [], 0
    for target in (1, 4, 7):
        sweep.net.clock.advance((target - age) * HOUR)
        age = target
        ws2.client.cache._creds.pop(str(RLOGIN), None)
        lives.append(round(ws2.client.get_credential(RLOGIN, life=9 * HOUR).life / HOUR, 3))
    return {
        "service": str(cred.service),
        "password_key_on_wire": eve.saw_bytes(string_to_key("jis-pw").key_bytes),
        "service_life_h_at_tgt_age_1_4_7h": lives,
    }


def full_protocol_act(realm):
    key = realm.service_key(RLOGIN)
    ws = realm.workstation()
    realm.net.reset_stats()
    ws.client.kinit("jis", "jis-pw")
    request, cred, sent = ws.client.mk_req(RLOGIN, mutual=True)
    context = krb_rd_req(request, RLOGIN, key, ws.host.address, realm.net.clock.now())
    krb_rd_rep(krb_mk_rep(context), sent, cred.session_key)
    tgt_cred = ws.client.cache.tgt(realm.name)
    tgs_key = realm.shards[0].db.principal_key(tgs_principal(realm.name))
    tgt, ticket = unseal_ticket(tgt_cred.ticket, tgs_key), unseal_ticket(cred.ticket, key)
    return {
        "served_client": context.client.name,
        "datagrams": realm.net.metrics.total("net.datagrams_total"),
        "kdc_requests": kdc_datagrams(realm.net),
        "session_keys_distinct": tgt.session_key != ticket.session_key,
        "password_key_opens_tgt": refusal(
            lambda: unseal_ticket(tgt_cred.ticket, string_to_key("jis-pw"))),
        "tgs_key_opens_service_ticket": refusal(lambda: unseal_ticket(cred.ticket, tgs_key)),
    }


# -- F10–F13: replication and administration --------------------------------


def slaves_act(realms):
    failover, spread = realms
    master = failover.shards[0].master_host.name
    failover.net.set_down(master)
    served = refusal(lambda: kinit(failover))
    failover.net.set_up(master)
    site = spread.shards[0]
    kdcs, addresses = [site.kdc] + [s.kdc for s in site.slaves], spread.kdc_addresses()
    stations = []
    for i in range(30):
        ws = spread.workstation()
        first = addresses[i % len(addresses)]
        ws.client.set_locator(REALM, StaticLocator([first] + [a for a in addresses if a != first]))
        stations.append(ws)
    for _round in range(3):
        for ws in stations:
            ws.client.kdestroy()
            ws.client.kinit("jis", "jis-pw")
    return {
        "login_with_master_down": served,
        "as_requests_master_slave1_slave2": [
            spread.net.metrics.total("kdc.requests_total", kind="as", server=k.host.name)
            for k in kdcs],
    }


def admin_master_build():
    realm = athena(slaves=1)
    realm.add_admin("jis", "jis-admin-pw")
    realm.propagate()
    return realm


def admin_master_act(realm):
    site = realm.shards[0]
    kdbm = KdbmClient(realm.workstation().client, site.master_host.address)
    added = kdbm.add_principal(Principal("jis", "admin", REALM), "jis-admin-pw",
                               Principal("u0", "", REALM), "pw")
    slave = site.slaves[0]
    kdbm_on_slave = refusal(
        lambda: KdbmServer(slave.db, realm.acl, port=9999).attach(slave.host))
    realm.net.set_down(site.master_host.name)
    observed = {
        "add_principal": added,
        "kdbm_on_slave": kdbm_on_slave,
        "kpasswd_with_master_down": refusal(lambda: kdbm.change_password(JIS, "jis-pw", "x")),
        "login_with_master_down": refusal(lambda: kinit(realm)),
    }
    realm.net.set_up(site.master_host.name)
    return observed


def admin_protocol_act(realm):
    site = realm.shards[0]
    ws = realm.workstation()
    kdbm = KdbmClient(ws.client, site.master_host.address)
    changed = [kdbm.change_password(JIS, old, new)
               for old, new in (("jis-pw", "other-pw"), ("other-pw", "jis-pw"))]
    ws.client.kdestroy()
    ws.client.kinit("jis", "jis-pw")
    kdbm_via_tgs = refusal(lambda: ws.client.get_credential(kdbm_principal(REALM)))
    eve = Eavesdropper(realm.net)
    kdbm.change_password(JIS, "jis-pw", "well-hidden-secret")
    eve.detach()
    return {
        "kpasswd": changed,
        "kdbm_ticket_via_tgs": kdbm_via_tgs,
        "new_password_on_wire": eve.saw_bytes(b"well-hidden-secret"),
        "audit_log_entries_permitted": (len(site.kdbm.log),
                                        sum(e.permitted for e in site.kdbm.log)),
    }


def users_realm(n_users: int, slaves: int = 2) -> Realm:
    realm = Realm(Network(), REALM, seed=b"fig13",
                  topology=RealmTopology(slaves_per_shard=slaves))
    for i in range(n_users):
        realm.add_user(f"user{i:04d}", f"pw{i}")
    return realm


def flip_kprop(datagram):
    if datagram.dst_port != 754:
        return datagram
    payload = bytearray(datagram.payload)
    payload[len(payload) // 2] ^= 0x01
    return type(datagram)(src=datagram.src, src_port=datagram.src_port, dst=datagram.dst,
                          dst_port=datagram.dst_port, payload=bytes(payload))


def propagation_act(realm):
    site = realm.shards[0]
    first = realm.propagate()
    converged = all(list(s.db.store.items()) == list(site.db.store.items())
                    for s in site.slaves)
    principals, dump = len(site.db), len(site.db.dump())
    realm.add_user("canary", "pw")
    realm.net.add_interceptor(flip_kprop)
    tampered = realm.propagate()
    realm.net.remove_interceptor(flip_kprop)
    canary_loaded = any(s.db.exists(Principal("canary", "", REALM)) for s in site.slaves)
    realm.schedule_propagation()
    realm.net.runtime.run_for(3 * HOUR)
    now = realm.net.clock.now()
    return {
        "principals_dump_bytes": (principals, dump),
        "round_all_ok": first.all_ok,
        "slaves_byte_identical": converged,
        "tampered_round_all_ok": tampered.all_ok,
        "canary_on_a_slave": canary_loaded,
        "worst_staleness_s": max(s.kpropd.staleness(now) for s in site.slaves),
        "dump_bytes_50_500_users": [len(users_realm(n, slaves=0).shards[0].db.dump())
                                    for n in (50, 500)],
    }


# -- the appendix: Kerberized NFS -------------------------------------------


def fileserver(mode: AuthMode, seed: bytes):
    realm = Realm(Network(), REALM, seed=seed)
    realm.add_user("jis", "jis-pw")
    host = realm.net.add_host("helios")
    nfs_service, _ = realm.add_service("nfs", "helios")
    mount_service, _ = realm.add_service("mountd", "helios")
    srvtab = realm.srvtab_for(nfs_service, mount_service)
    server = NfsServer(mode=mode, service=nfs_service, srvtab=srvtab).attach(host)
    server.passwd.add("jis", 1001, [100])
    MountDaemon(server, mount_service, srvtab).attach(host)
    server.fs.install_home("jis", 1001, 100)
    server.fs.create("/u/jis/data", NfsCredential(uid=1001, gids=(100,)))
    server.fs.write("/u/jis/data", b"x" * 1024, NfsCredential(uid=1001))
    ws = kinit(realm)
    client = NfsClient(ws.host, host.address, uid_on_client=1001, gids=[100])
    if mode == AuthMode.MAPPED:
        client.kerberos_mount(ws.client, mount_service)
    elif mode == AuthMode.KERBEROS_RPC:
        client.enable_per_rpc_kerberos(ws.client, nfs_service)
    return realm.net, server, client


NFS_DESIGNS = {AuthMode.TRUSTED: b"nfs-t", AuthMode.MAPPED: b"nfs-m",
               AuthMode.KERBEROS_RPC: b"nfs-k"}


def nfs_act(cells):
    """20 then 200 reads under each design, a getattr every tenth: the
    price of each design per RPC, in DES verifications and wire bytes."""
    observed = {}
    for mode, (net, server, client) in cells.items():
        wire, rpcs = net.metrics.total("net.bytes_total"), 0
        for n_ops in (20, 200):
            for i in range(n_ops):
                client.read("/u/jis/data")
                rpcs += 1
                if i % 10 == 0:
                    client.getattr("/u/jis/data")
                    rpcs += 1
        observed[mode.value] = {
            "rpcs": rpcs,
            "des_verifications_per_rpc": server.kerberos_verifications / rpcs,
            "kernel_map_lookups_per_rpc": server.credmap.lookups / rpcs,
            "wire_bytes_per_rpc": round((net.metrics.total("net.bytes_total") - wire) / rpcs, 1),
        }
    return observed


# -- Section 9: Athena's scale ------------------------------------------------


def athena_hour_act(result):
    realm, notes, net = result.world.realm, result.notes, result.world.net
    snap = net.metrics.snapshot(now=net.clock.now())
    ws = realm.workstation()
    return {
        "passed": result.passed,
        "principals": len(realm.shards[0].db),
        "logins_service_uses": (notes["logins"], notes["service_uses"]),
        "kdc_messages": notes["kdc_messages"],
        "kdc_requests_per_use": round(notes["kdc_requests_per_use"], 2),
        "registry_has": {"net.datagrams_total", "kdc.outcomes_total", "replay.checks_total"}
        <= {e["name"] for e in snap["counters"]},
        "as_latency_histogram": any(e["name"] == "client.exchange_seconds"
                                    and e["labels"].get("type") == "as"
                                    for e in snap["histograms"]),
        "login_as_user04999": refusal(lambda: ws.client.kinit("user04999", "password-4999")),
        "digest": result.digest[:16],
    }


def burst(n_stations: int, workers: int, n_users: int = 256):
    """The ``login_burst`` row, every arrival inside 50 ms."""
    return scenarios.run("login_burst", SEED, n_users=n_users, n_stations=n_stations,
                         workers=workers, window=0.05)


def throughput(result) -> float:
    """Completed logins per simulated second, first arrival to drain."""
    return result.outcomes.get("ok", 0) / result.makespan


def capacity_act(saturated):
    """One KDC worker's simulated service rate, saturated by a 64-login
    burst, against Athena's busiest plausible hour: 650 logins, each
    session asking the TGS ten times."""
    rate = throughput(saturated)
    busy = (650 + 650 * 10) / rate
    return {
        "served_per_sim_s": round(rate, 1),
        "busy_sim_s_per_hour": round(busy, 1),
        "utilisation": round(busy / HOUR, 4),
    }


# -- Section 7.2: cross-realm -----------------------------------------------


def crossrealm_build():
    net = Network()
    athena_realm = Realm(net, REALM, seed=b"x1-athena")
    lcs = Realm(net, "LCS.MIT.EDU", seed=b"x1-lcs")
    athena_realm.add_user("jis", "jis-pw")
    service, key = lcs.add_service("rlogin", "ptt")
    link(athena_realm, lcs)
    ws = kinit(athena_realm)
    ws.client.set_locator(lcs.name, StaticLocator([lcs.shards[0].master_host.address]))
    return net, lcs, ws, service, key


def crossrealm_act(world):
    net, lcs, ws, service, key = world
    net.reset_stats()
    cred = ws.client.get_credential(service)
    round_trips = kdc_datagrams(net)
    request, _, _ = ws.client.mk_req(service)
    context = krb_rd_req(request, service, key, ws.host.address, net.clock.now())
    uw = Realm(net, "CS.WASHINGTON.EDU", seed=b"x1-uw")
    link(lcs, uw)
    ws.client.set_locator(uw.name, StaticLocator([uw.shards[0].master_host.address]))
    remote_tgt = ws.client.cache.remote_tgt(REALM, lcs.name)
    return {
        "ticket_client": str(unseal_ticket(cred.ticket, key).client),
        "served_client_realm": context.client.realm,
        "kdc_requests_first_ticket": round_trips,
        "second_hop": refusal(lambda: ws.client._tgs_exchange(
            lcs.name, remote_tgt, tgs_principal(lcs.name, uw.name), None)),
    }


# -- Section 2.2: the cipher ------------------------------------------------

PCBC_KEY = DesKey(bytes.fromhex("133457799BBCDFF1"))
PCBC_IV = bytes.fromhex("FEDCBA9876543210")
PCBC_DATA = bytes(range(128))


def damaged_blocks(encrypt, decrypt, block: int) -> int:
    cipher = bytearray(encrypt(PCBC_KEY, PCBC_DATA, PCBC_IV))
    cipher[8 * block] ^= 0x01
    plain = decrypt(PCBC_KEY, bytes(cipher), PCBC_IV)
    return sum(plain[i:i + 8] != PCBC_DATA[i:i + 8] for i in range(0, len(PCBC_DATA), 8))


def sealed_tampers_caught(mode: Mode) -> tuple:
    blob = seal(PCBC_KEY, PCBC_DATA, mode=mode)
    positions = range(1, len(blob) // 8 - 1)  # the header and trailer blocks aside
    caught = 0
    for i in positions:
        tampered = bytearray(blob)
        tampered[8 * i] ^= 0x01
        caught += refusal(lambda: unseal(PCBC_KEY, bytes(tampered), mode=mode)) != "accepted"
    return caught, len(positions)


def pcbc_act(blocks):
    return {
        "cbc_blocks_damaged": [damaged_blocks(cbc_encrypt, cbc_decrypt, i) for i in blocks],
        "pcbc_blocks_damaged": [damaged_blocks(pcbc_encrypt, pcbc_decrypt, i) for i in blocks],
        "sealed_tampers_caught_pcbc": sealed_tampers_caught(Mode.PCBC),
        "sealed_tampers_caught_cbc": sealed_tampers_caught(Mode.CBC),
    }


def crypto_act(key):
    """The cost table's operations, by what they produce; what they cost
    is the ledger's ``crypto.*`` probes."""
    kilobyte = bytes(1024)
    return {
        "des_block_of_zeros": key.encrypt_block(bytes(8)).hex(),
        "sealed_bytes_100_1024": (len(seal(key, bytes(100))), len(seal(key, kilobyte))),
        "unseal_round_trip": unseal(key, seal(key, bytes(100))) == bytes(100),
        "string_to_key": string_to_key("correct horse battery staple").key_bytes.hex(),
        "cbc_mac_1024": cbc_mac(key, kilobyte).hex(),
        "quad_cksum_1024": quad_cksum(kilobyte, key.key_bytes),
        "kdc_session_key": KeyGenerator(seed=b"kdc").session_key().key_bytes.hex(),
    }


# -- Sections 1, 4.3 and 8: attackers and the lifetime tradeoff -------------


def threats_build():
    realm = athena(seed=b"t1-matrix")
    realm.add_user("weakuser", "password")
    return realm


def threats_act(realm):
    net, key = realm.net, realm.service_key(RLOGIN)

    def verdict(fn, ok="DEFEATED", broken="BROKEN"):
        return ok if refusal(fn) != "accepted" else broken

    eve = Eavesdropper(net)
    ws = realm.workstation(hostname="wsm")
    ws.client.kinit("jis", "jis-pw")
    cred = ws.client.get_credential(RLOGIN)
    leaked = any(eve.saw_bytes(secret) for secret in (
        b"jis-pw", string_to_key("jis-pw").key_bytes, cred.session_key.key_bytes))
    cache = ReplayCache()
    request, _, _ = ws.client.mk_req(RLOGIN)
    krb_rd_req(request, RLOGIN, key, ws.host.address, net.clock.now(), cache)
    fake = net.add_host("fake")
    MasqueradingServer(fake, 544)
    thief = net.add_host("thief")
    loot = [s for s in steal_credentials(ws.client) if "rlogin" in str(s.credential.service)][0]
    eve2 = Eavesdropper(net)
    ws2 = realm.workstation(hostname="wsw")
    ws2.client.kinit("weakuser", "password")
    guessed = eve2.offline_password_guess(eve2.harvest_kdc_replies()[0], ["123456", "password"])
    eve.detach()
    eve2.detach()
    return {
        "eavesdrop for keys": "BROKEN" if leaked else "DEFEATED",
        "replay (cached)": verdict(lambda: krb_rd_req(
            request, RLOGIN, key, ws.host.address, net.clock.now(), cache)),
        "masquerading server": verdict(lambda: KerberizedChannel(
            ws.client, RLOGIN, fake.address, 544, mutual=True)),
        "stolen ticket, other host": refusal(lambda: krb_rd_req(
            use_stolen_credential(loot, thief), RLOGIN, key, thief.address, net.clock.now())),
        "stolen ticket, victim host": verdict(lambda: krb_rd_req(
            use_stolen_credential(loot, ws.host), RLOGIN, key, ws.host.address,
            net.clock.now()), ok="rejected", broken="SUCCEEDS until expiry"),
        "offline dictionary (weak pw)": "SUCCEEDS (design edge)" if guessed else "resisted",
    }


def lifetime_day(hours: float) -> tuple:
    """A 12 h day, a service use every 15 min, the ticket file copied 2 h
    in: (password prompts, hours the stolen ticket keeps working)."""
    life, step = hours * HOUR, 15 * 60.0
    net = Network()
    realm = Realm(net, REALM, seed=b"l1-%d" % int(hours * 60))
    # The realm's caps lifted to 30 h: the sweep variable is the request.
    realm.add_user("jis", "jis-pw", max_life=30 * HOUR)
    service, key = realm.add_service("rlogin", "priam", max_life=30 * HOUR)
    realm.shards[0].db.set_max_life(tgs_principal(realm.name), 30 * HOUR)
    ws = realm.workstation()
    prompts, stolen, window = 0, None, 0.0
    while net.clock.now() <= 12 * HOUR:
        if ws.client.cache.tgt(realm.name, now=ws.host.clock.now()) is None:
            ws.client.kinit("jis", "jis-pw", life=life)
            prompts += 1
        ws.client.get_credential(service, life=life)
        ws.client.mk_req(service, checksum=0)
        if stolen is None and net.clock.now() >= 2 * HOUR:
            stolen = [s for s in steal_credentials(ws.client)
                      if "rlogin" in str(s.credential.service)][0]
            stolen_at = net.clock.now()
        net.clock.advance(step)
    probe = stolen_at
    while probe < stolen_at + 30 * HOUR and refusal(
            lambda: krb_rd_req(use_stolen_credential(stolen, ws.host, now=probe), service,
                               key, ws.host.address, probe)) == "accepted":
        window = probe - stolen_at + step
        probe += step
    return prompts, window / HOUR


def preauth_realm(preauth: bool, seed: bytes) -> Realm:
    realm = Realm(Network(), REALM, seed=seed)
    for i in range(30):
        realm.shards[0].db.add_principal(Principal(f"user{i:02d}", "", REALM), password=f"pw-{i}",
                               attributes=ATTR_REQUIRE_PREAUTH if preauth else 0)
    return realm


def harvest(realm: Realm) -> int:
    attacker = realm.net.add_host("harvester")
    return sum(active_as_probe(attacker, realm.shards[0].master_host.address,
                               Principal(f"user{i:02d}", "", REALM), REALM) is not None
               for i in range(30))


def preauth_act(realms):
    open_realm, hard_realm, cost_realm = realms
    ws = cost_realm.workstation()
    cost_realm.net.reset_stats()
    return {
        "harvested_of_30_open_hardened": (harvest(open_realm), harvest(hard_realm)),
        "preauth_login": refusal(lambda: ws.client.kinit("user00", "pw-0")),
        "kdc_requests_per_preauth_login": kdc_datagrams(cost_realm.net),
    }


# -- Figure 9's wire -----------------------------------------------------------


def wire_act(gen):
    session, server, user_key = gen.session_key(), gen.session_key(), gen.session_key()
    ticket = seal_ticket(Ticket(server=RLOGIN, client=JIS, address=WS_ADDR.as_int,
                                timestamp=0.0, life=8 * HOUR, session_key=session.key_bytes),
                         server)
    auth = build_authenticator(JIS, WS_ADDR, 0.0, session)
    body = KdcReplyBody(session_key=session.key_bytes, server=RLOGIN, issue_time=0.0,
                        life=8 * HOUR, kvno=1, request_timestamp=0.0, ticket=ticket)
    messages = {
        "AS_REQ": (MessageType.AS_REQ, AsRequest(client=JIS, service=tgs_principal(REALM),
                                                 requested_life=8 * HOUR, timestamp=0.0)),
        "AS_REP": (MessageType.AS_REP, KdcReply.build(JIS, body, user_key)),
        "TGS_REQ": (MessageType.TGS_REQ, TgsRequest(
            service=RLOGIN, requested_life=8 * HOUR, timestamp=0.0, tgt_realm=REALM,
            tgt=ticket, authenticator=auth)),
        "TGS_REP": (MessageType.TGS_REP, KdcReply.build(JIS, body, session)),
        "AP_REQ": (MessageType.AP_REQ, ApRequest(ticket=ticket, authenticator=auth,
                                                 mutual=True, kvno=1)),
    }
    sizes = {name: len(encode_message(*msg)) for name, msg in messages.items()}
    return {
        "sealed_ticket_authenticator": (len(ticket), len(auth)),
        "message_bytes": sizes,
        "login_plus_service_bytes": sum(sizes.values()),
        "largest_message": max(sizes.values()),
    }


# -- an unreliable network -----------------------------------------------------

RETRY = RetryPolicy(max_attempts=8, base_delay=0.05, jitter=0.5)


def lossy_logins(loss: float) -> dict:
    """40 logins and service tickets with ``loss`` (and a quarter of
    duplicates) on the KDC port."""
    net = Network(seed=SEED)
    realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=1))
    realm.add_user("jis", "jis-pw")
    service, _ = realm.add_service("rlogin", "priam")
    realm.propagate()
    if loss:
        net.faults.add(Loss(loss, Match.build(port=KERBEROS_PORT)))
        net.faults.add(Duplicate(0.25, Match.build(port=KERBEROS_PORT)))
    ok = 0
    for _ in range(40):
        ws = realm.workstation(retry_policy=RETRY)
        ok += refusal(lambda: (ws.client.kinit("jis", "jis-pw"),
                               ws.client.get_credential(service))) == "accepted"
    # The login path's attempts only: propagation (op="kprop") retries too.
    attempts = sum(net.metrics.total("retry.attempts_total", op=op) for op in ("as", "tgs"))
    return {"ok": ok, "attempts": attempts,
            "drops": net.metrics.total("net.drops_total", reason="loss"),
            "duplicates": net.metrics.total("net.duplicates_total"),
            "replays_absorbed": net.metrics.total("replay.checks_total", result="replay")}


def chaos_act(losses):
    rows = {loss: lossy_logins(loss) for loss in losses}
    return {
        "by_loss_rate": rows,
        "attempts_per_login": [row["attempts"] / 40 for row in rows.values()],
        "fewest_ok": min(row["ok"] for row in rows.values()),
    }


# -- the runtime, replication and observability at scale ----------------------

SHED = "refused:KDC_OVERLOADED"


def runtime_act(cells):
    net = cells[(128, 4)].world.net
    counters = {e["name"] for e in net.metrics.snapshot(now=net.clock.now())["counters"]}
    return {
        "ok_shed_makespan_ms": {
            f"{n}x{w}": (r.outcomes.get("ok", 0), r.outcomes.get(SHED, 0),
                         round(r.makespan * 1e3, 2)) for (n, w), r in cells.items()},
        "every_request_accounted": all(
            sum(r.outcomes.values()) == n and set(r.outcomes) <= {"ok", SHED}
            for (n, _w), r in cells.items()),
        "speedup_1_to_4_workers": {
            n: round(throughput(cells[(n, 4)]) / throughput(cells[(n, 1)]), 2)
            for n in (64, 128)},
        "digests": {f"{n}x{w}": r.digest[:16] for (n, w), r in cells.items()},
        "same_seed_summary": burst(128, 4).summary() == cells[(128, 4)].summary(),
        "registry_has": {"kdc.queue.batches_total", "runtime.events_run_total"} <= counters,
    }


def store_digest(db) -> str:
    h = hashlib.sha256()
    for key, value in db.store.items():
        h.update(key.encode())
        h.update(value)
    return h.hexdigest()


def delta_vs_full(n_users: int) -> dict:
    """One forced full-dump round, then a delta round after 10 password
    changes and one after 2 % of the realm changed; bytes on the wire
    per round, every slave checked against the master after each."""
    realm = Realm(Network(seed=SEED), REALM, seed=b"repl-scale",
                  topology=RealmTopology(slaves_per_shard=2))
    site = realm.shards[0]
    for i in range(n_users):
        realm.add_user(f"user{i:05d}", f"pw{i}")
    row, digests = {}, {}
    for round_no, (label, changes) in enumerate(
            (("full", 0), ("low", 10), ("high", max(10, n_users // 50)))):
        for i in range(changes):
            site.db.change_key(Principal(f"user{(round_no * changes + i) % n_users:05d}",
                                          "", REALM), new_password=f"new-{round_no}-{i}")
        before = realm.net.metrics.total("kprop.bytes_total")
        result = realm.propagate(full=label == "full")
        assert result.all_ok and (result.fulls if label == "full" else result.deltas) == 2
        row[label] = int(realm.net.metrics.total("kprop.bytes_total") - before)
        digests[label] = store_digest(site.db)
        row[f"{label}_converged"] = all(store_digest(s.db) == digests[label]
                                        for s in site.slaves)
    row["low_digest"] = digests["low"][:16]
    return row


def replication_act(sizes):
    rows = {n: delta_vs_full(n) for n in sizes}
    return {
        "bytes_by_principals": rows,
        "full_over_low_churn_delta": round(min(r["full"] / r["low"] for r in rows.values()), 1),
        "high_churn_delta_over_full": round(max(r["high"] / r["full"] for r in rows.values()), 3),
        "same_seed_rerun": delta_vs_full(sizes[0]) == rows[sizes[0]],
    }


def trace_act(result):
    """A traced ``login_burst`` (128 stations, two workers): every posted
    login is a trace; what tracing costs is the ledger's
    ``driver.trace_overhead_x``."""
    tracer, audit = result.world.net.tracer, result.world.net.audit
    names = {rid: {s.name for s in tracer.by_request(rid)} for rid in tracer.request_ids()}
    full = {"scenario.post_login", "kdc.queue.wait", "kdc.as", "net.transit"}
    shed = audit.events("overload_shed")
    export = render_chrome_trace(tracer)
    again = render_chrome_trace(scenarios.run("login_burst", SEED).world.net.tracer)
    return {
        "posted_ok_shed": (len(result.world.stations), result.outcomes.get("ok", 0),
                           result.outcomes.get(SHED, 0)),
        "traces": len(names),
        "full_trees": sum(full <= n for n in names.values()),
        "shed_audits_joined": (len(shed), len({e.trace_id for e in shed if e.trace_id}
                                              & set(names))),
        "handler_spans_broken_down": all(
            {"queue_wait", "batch_size", "service_time", "crypto_ops"} <= set(s.attrs)
            for s in tracer.spans if s.name == "kdc.as"),
        "export_bytes_sha256": (len(export), hashlib.sha256(export.encode()).hexdigest()[:16]),
        "same_seed_export": again == export,
    }


def sweep() -> dict:
    return {name: scenarios.run(name, seed=SEED).summary() for name in scenarios.names()}


def campaigns_act(summaries):
    killed = summaries["master_assassination"]
    checks = {c["name"]: c["observed"] for c in killed["checks"]}
    return {
        "failing": [name for name, s in summaries.items() if not s["passed"]],
        "digests": {name: s["digest"][:16] for name, s in summaries.items()},
        "p95_at_least_p50": all(s["latency_p95"] >= s["latency_p50"] >= 0.0
                                for s in summaries.values()),
        "assassination_promotions_audits_rejoins": (
            checks["promotions"], checks["audit_joined"], checks["rejoined"]),
        "new_master_differs": killed["notes"]["new_master"] != killed["notes"]["old_master"],
        "same_seed_sweep": json.dumps(sweep(), sort_keys=True)
        == json.dumps(summaries, sort_keys=True),
    }


# -- the request plane ---------------------------------------------------------


def as_frames(n: int) -> list:
    return [encode_message(MessageType.AS_REQ, AsRequest(
        client=JIS, service=tgs_principal(REALM), requested_life=HOUR, timestamp=float(i)))
        for i in range(n)]


def request_plane_act(realms):
    """A buffer answers as its frames served one per call do, with every
    cache off; warm 128-frame buffers ride the wide lanes and the
    skeleton cache.  Batch against single rates are the ledger's
    ``core.kdc.as_us_b1`` and ``core.kdc.as_us_b128``."""
    one, many, realm = realms
    src_one, src_many = one.workstation().host.address, many.workstation().host.address
    with keycache.caches_disabled():
        singles = [bytes(one.shards[0].kdc.process_request_buffer(pack_frames([w]), src_one)[0])
                   for w in as_frames(8)]
        batched = [bytes(r) for r in many.shards[0].kdc.process_request_buffer(
            pack_frames(as_frames(8)), src_many)]
    src, buffer = realm.workstation().host.address, pack_frames(as_frames(128))
    realm.shards[0].kdc.process_request_buffer(buffer, src)
    lanes, hits = interleaved_blocks(), keycache.skeleton_stats()["hit"]
    replies = [len(realm.shards[0].kdc.process_request_buffer(buffer, src)) for _ in range(4)]
    return {
        "buffer_equals_singles_caches_off": batched == singles,
        "replies_per_buffer": replies,
        "wide_lane_blocks_per_request": (interleaved_blocks() - lanes) / 512,
        "skeleton_hits_per_request": (keycache.skeleton_stats()["hit"] - hits) / 512,
    }


# -- sharding ----------------------------------------------------------------

SHARD_PRINCIPALS, SHARD_DRIVERS = 100_000, 1_000


def shard_fill(world) -> None:
    """The database bulk: principals nobody drives."""
    for i in range(SHARD_PRINCIPALS - SHARD_DRIVERS):
        world.realm.add_user(f"filler{i:06d}", f"pw{i}")


def shard_topology(p) -> RealmTopology:
    # Deep enough that no burst is shed: the curve rates service, not
    # admission control (RT's story).  Two workers a shard.
    return RealmTopology(shards=int(p["n_shards"]),
                         kdc_queue=WorkQueueConfig(workers=2, queue_limit=2 * SHARD_DRIVERS))


@dataclass(frozen=True)
class FreshViews:
    """Due at once: every station locates afresh at its login, so the
    p99 rates the move itself (a view cached at boot costs a referral)."""

    at: ClassVar[float] = 0.0

    def fire(self, world) -> None:
        for ws in world.stations:
            ws.client.locator_for(REALM).refresh()


SHARD_CELL = replace(
    scenarios.get("login_burst"), name="shard_scale_cell",
    defaults={"n_shards": 1, "n_users": SHARD_DRIVERS, "n_stations": SHARD_DRIVERS,
              "window": 0.1},
    slos=(SloSpec("success_rate", "min", 1.0, "no login lost in the burst"),),
    topology=shard_topology, daemons=(shard_fill,),
)
#: 200 paced logins over 10 s on two shards, half of shard 0's drivers
#: moved a third of the way in; STEADY is the same run with no move.
REBALANCE = replace(
    scenarios.get("shard_rebalance_under_load"),
    defaults={"n_shards": 2, "n_users": SHARD_DRIVERS, "n_stations": 200, "window": 10.0,
              "move_at": 10.0 / 3},
    topology=shard_topology, daemons=(shard_fill,),
    faults=lambda p: (FreshViews(), Rebalance(START + p["move_at"])),
)
STEADY = replace(REBALANCE, slos=REBALANCE.slos[:2], faults=lambda p: (FreshViews(),))


def shard_act(cells):
    again = scenarios.run(SHARD_CELL, SEED, n_shards=2)
    steady, moved = scenarios.run(STEADY, SEED), scenarios.run(REBALANCE, SEED)
    rates = {n: round(throughput(r), 1) for n, r in cells.items()}
    return {
        "bursts_passed": all(r.passed for r in cells.values()),
        "sim_req_per_s_by_shards": rates,
        "scale_1_to_4": round(rates[4] / rates[1], 2),
        "outcomes_steady_moved": (steady.outcomes, moved.outcomes),
        "p99_ms_steady_moved": (round(steady.latency_p99 * 1e3, 3),
                                round(moved.latency_p99 * 1e3, 3)),
        "p99_ratio": round(moved.latency_p99 / steady.latency_p99, 2),
        "records_moved_epoch": (moved.notes["entries_moved"], moved.notes["ring_epoch"]),
        "same_seed_ring_and_burst": (
            again.world.realm.ring.to_record(REALM) == cells[2].world.realm.ring.to_record(REALM),
            again.summary() == cells[2].summary()),
        "digest_2_shards": cells[2].digest[:16],
    }


# -- the Kerberized NFS fleet ----------------------------------------------------


def nfs_fleet(mode: AuthMode):
    """Four servers, eight stations, each user's 1 KiB file on its server."""
    net = Network(seed=SEED, latency=0.01)
    realm = Realm(net, REALM, seed=SEED.to_bytes(8, "big"))
    specs = [NfsUserSpec(f"user{i}", 1000 + i) for i in range(8)]
    for i, spec in enumerate(specs):
        realm.add_user(spec.username, f"pw-{i}")
    fleet = NfsFleet(realm, n_servers=4, config=NfsExportConfig(auth_mode=mode), users=specs)
    stations = []
    for i, spec in enumerate(specs):
        site, cred = fleet[i % 4], NfsCredential(uid=spec.uid, gids=spec.gids)
        site.server.fs.create(f"/u/{spec.username}/data", cred)
        site.server.fs.write(f"/u/{spec.username}/data", b"x" * 1024, cred)
        ws = kinit(realm, spec.username, f"pw-{i}")
        client = fleet.client(ws, i % 4, uid_on_client=spec.uid)
        if mode == AuthMode.MAPPED:
            client.kerberos_mount(ws.client, site.mount_service)
        else:
            client.enable_per_rpc_kerberos(ws.client, site.nfs_service)
        stations.append((client, spec.username))
    return net, fleet, stations


def fleet_battery(world, n_ops: int) -> str:
    """Reads round-robin over the stations, a write every tenth round:
    the digest of station, op, bytes served and sim clock."""
    net, _fleet, stations = world
    fingerprint = hashlib.sha256()
    for i in range(n_ops):
        for client, user in stations:
            data = client.read(f"/u/{user}/data")
            fingerprint.update(f"{user}:read:{len(data)}:{net.clock.now()!r};".encode())
            if i % 10 == 0:
                written = client.write(f"/u/{user}/data", data)
                fingerprint.update(f"{user}:write:{written}:{net.clock.now()!r};".encode())
    return fingerprint.hexdigest()[:16]


def fleet_act(worlds):
    observed = {}
    for mode, world in worlds.items():
        fleet_battery(world, 5)
        digest = fleet_battery(world, 40)
        servers = [site.server for site in world[1].servers]
        observed[mode.value] = {
            "digest": digest,
            "every_server_read": all(s.ops["READ"] > 0 for s in servers),
            "kernel_map_lookups": sum(s.credmap.lookups for s in servers),
            "des_verifications": sum(s.kerberos_verifications for s in servers),
            "same_seed_digests": [fleet_battery(nfs_fleet(mode), 10) for _ in range(2)],
        }
    return observed


# -- the table -----------------------------------------------------------------

EXPERIMENTS = (
    Experiment(
        "F2", "Figure 2: Kerberos names", lambda: FIGURE_2, names_act,
        {"components": FIGURE_2, "round_trips": 4},
        paper=("Names are `name.instance@realm`: `bcn`, `treese.root`, `jis@LCS.MIT.EDU`, "
               "`rlogin.priam@ATHENA.MIT.EDU`."),
        note="Every example parses to its components and prints back byte for byte.",
    ),
    Experiment(
        "F3", "Figure 3: the ticket {s, c, addr, timestamp, life, K_s,c}K_s",
        ticket_build, ticket_act,
        {"sealed_bytes": 120, "opens_with_server_key": True,
         "wrong_key_open": "RD_AP_MODIFIED", "tampers_refused": (15, 15)},
        paper=("A ticket is `{s, c, addr, timestamp, life, K_s,c}K_s`: the user cannot modify it,"
               " and only the named server can open it."),
        note=("One bit is flipped in each block of the sealed ticket in turn. A seal's price is "
              "the ledger's `crypto.seal1_us_per_block`."),
    ),
    Experiment(
        "F4", "Figure 4: the authenticator {c, addr, timestamp}K_s,c",
        lambda: KeyGenerator(seed=b"fig4"), authenticator_act,
        {"opened_client": "jis@ATHENA.MIT.EDU", "presentations_accepted": [True, False],
         "wrong_key_open": "RD_AP_MODIFIED"},
        paper="An authenticator is `{c, addr, timestamp}K_s,c`, and it is used once.",
        note="The second presentation of one authenticator hits the replay cache.",
    ),
    Experiment(
        "F5", "Figure 5: getting the initial ticket (AS exchange)", athena, as_act,
        {"tgt_life_h": 8.0, "datagrams_per_login": 2, "kdc_port_requests": 1,
         "password_on_wire": False, "password_key_on_wire": False,
         "wrong_password": "INTK_BADPW"},
        paper=("The request carries only the user's and the TGS's names; the reply is sealed in "
               "the password's key, so a wrong password simply fails to decrypt."),
        note=("A wiretap of the whole login is searched for the password and its key. A login's "
              "price is the ledger's `core.kdc.rpc_as_us`."),
    ),
    Experiment(
        "F6", "Figure 6: requesting a service (AP exchange)", athena, ap_act,
        {"served_client": "jis", "exact_replay": "RD_AP_REPEAT",
         "older_than_skew": "RD_AP_TIME", "within_skew": "accepted",
         "from_wrong_host": "RD_AP_BADD"},
        paper=("The server checks ticket against authenticator, packet address and time; a "
               "repeated ticket and timestamp is discarded; clocks agree \"to within several "
               "minutes\"."),
        note=("The skew window is `repro.core.replay.CLOCK_SKEW`. `krb_rd_req`'s price is the "
              "ledger's `core.applib.ap_us`."),
    ),
    Experiment(
        "F7", "Figure 7: mutual authentication", athena, mutual_act,
        {"server_proof": "accepted", "impostor_reply": "RD_AP_MODIFIED",
         "proof_for_other_request": "RD_AP_MODIFIED"},
        paper="For mutual authentication the server returns `{timestamp+1}K_s,c`.",
        note="An impostor's reply and a proof for another request are refused by the client.",
    ),
    Experiment(
        "F8", "Figure 8: getting a server ticket (TGS exchange)",
        lambda: (athena(), athena(seed=b"fig8-sweep")), tgs_act,
        {"service": str(RLOGIN), "password_key_on_wire": False,
         "service_life_h_at_tgt_age_1_4_7h": [7.0, 4.0, 1.0]},
        paper=("A server ticket needs no password, and its life is the minimum of the TGT's "
               "remaining life and the service's default."),
        note="The sweep asks for a nine-hour service ticket as the TGT ages.",
    ),
    Experiment(
        "F9", "Figure 9: the complete protocol", athena, full_protocol_act,
        {"served_client": "jis", "datagrams": 4, "kdc_requests": 2,
         "session_keys_distinct": True, "password_key_opens_tgt": "RD_AP_MODIFIED",
         "tgs_key_opens_service_ticket": "RD_AP_MODIFIED"},
        paper="The whole protocol is three exchanges: AS, TGS and AP.",
        note=("Keys never cross. End to end, the ledger's `login_session` workload prices the "
              "flow."),
    ),
    Experiment(
        "F10", "Figure 10: authentication on the master or a slave",
        lambda: (athena(slaves=2), athena(slaves=2, seed=b"fig10-load")), slaves_act,
        {"login_with_master_down": "accepted",
         "as_requests_master_slave1_slave2": [30, 30, 30]},
        paper=("Authentication runs on read-only slave copies, for availability and to relieve "
               "the master."),
        note=("In the load cell, each station's first choice rotates over the master and two "
              "slaves for three login rounds."),
    ),
    Experiment(
        "F11", "Figure 11: administration requests reach the master only",
        admin_master_build, admin_master_act,
        {"add_principal": Holds("names the principal added", lambda v: "added" in v),
         "kdbm_on_slave": "ReadOnlyDatabase", "kpasswd_with_master_down": "KDBM_ERROR",
         "login_with_master_down": "accepted"},
        paper=("The KDBM runs only on the master: administration stops while it is down, and "
               "authentication continues."),
    ),
    Experiment(
        "F12", "Figure 12: the administration protocol", athena, admin_protocol_act,
        {"kpasswd": Holds("every change confirmed",
                          lambda v: all("password changed" in r for r in v)),
         "kdbm_ticket_via_tgs": "KDC_PR_NOTGT", "new_password_on_wire": False,
         "audit_log_entries_permitted": (3, 3)},
        paper=("KDBM tickets come only from the AS; passwords cross the network only in private "
               "messages; every request is logged, permitted or denied."),
        note="A kpasswd's price is the ledger's `admin_churn` workload.",
    ),
    Experiment(
        "F13", "Figure 13: database propagation", lambda: users_realm(100), propagation_act,
        {"principals_dump_bytes": (102, 10597), "round_all_ok": True,
         "slaves_byte_identical": True, "tampered_round_all_ok": False,
         "canary_on_a_slave": False, "worst_staleness_s": 0.0,
         "dump_bytes_50_500_users": [5497, 51397]},
        paper=("Full dumps go out hourly, checksummed in the master key; slaves verify before "
               "loading; the dump is useless to an eavesdropper."),
        note=("Staleness is read after three hours of the hourly schedule. A round's price is the"
              " ledger's `replication.full_dump_ms`."),
    ),
    Experiment(
        "NFS", "Appendix: per-RPC Kerberos against the mount-time mapping",
        lambda: {mode: fileserver(mode, seed) for mode, seed in NFS_DESIGNS.items()}, nfs_act,
        {"trusted": {"rpcs": 242, "des_verifications_per_rpc": 0.0,
                     "kernel_map_lookups_per_rpc": 0.0, "wire_bytes_per_rpc": 983.5},
         "mapped": {"rpcs": 242, "des_verifications_per_rpc": 0.0,
                    "kernel_map_lookups_per_rpc": 1.0, "wire_bytes_per_rpc": 983.5},
         "kerberos-rpc": {"rpcs": 242, "des_verifications_per_rpc": 1.0,
                          "kernel_map_lookups_per_rpc": 0.0, "wire_bytes_per_rpc": 1174.6}},
        paper=("Per-RPC Kerberos \"would have delivered unacceptable performance\": the shipped "
               "design authenticates at mount time and maps ⟨CLIENT-IP, UID-ON-CLIENT⟩ per "
               "transaction in the kernel."),
        note=("Reads with a getattr every tenth, after a warm-up. The masquerade, GID, logout and"
              " forgery claims are tests in `tests/apps/test_nfs.py`."),
    ),
    Experiment(
        "S9", "Section 9: Athena's 5,000 users, busiest hour (athena_hour row)",
        lambda: scenarios.run("athena_hour", SEED), athena_hour_act,
        {"passed": True, "principals": 5067, "logins_service_uses": (65, 390),
         "kdc_messages": 186, "kdc_requests_per_use": 0.48, "registry_has": True,
         "as_latency_histogram": True, "login_as_user04999": "accepted",
         "digest": "afac95fe73e4a06c"},
        paper=("Kerberos has been the sole authentication for 5,000 users, 650 workstations and "
               "65 servers since January 1987."),
        note=("The `athena_hour` campaign: stations arrive over the busiest hour, log in and use "
              "services. Ticket caching amortizes the TGS."),
    ),
    Experiment(
        "X1", "Section 7.2: cross-realm authentication", crossrealm_build, crossrealm_act,
        {"ticket_client": "jis@ATHENA.MIT.EDU", "served_client_realm": REALM,
         "kdc_requests_first_ticket": 2, "second_hop": "KDC_NO_CROSS_REALM"},
        paper=("Paired realms share a key; the remote TGS accepts the foreign TGT, the client's "
               "realm rides in the ticket, and a second hop is not supported."),
    ),
    Experiment(
        "C1", "Section 2.2: CBC against PCBC error propagation",
        lambda: range(len(PCBC_DATA) // 8), pcbc_act,
        {"cbc_blocks_damaged": [2] * 15 + [1],
         "pcbc_blocks_damaged": list(range(16, 0, -1)),
         "sealed_tampers_caught_pcbc": (16, 16), "sealed_tampers_caught_cbc": (1, 16)},
        paper=("In CBC an error spreads only through the current block; in PCBC it spreads "
               "through the whole message, rendering it useless."),
        note="One bit is flipped at each block of a sixteen-block message in turn.",
    ),
    Experiment(
        "T1", "Sections 1, 4.3 and 8: the threat matrix", threats_build, threats_act,
        {"eavesdrop for keys": "DEFEATED", "replay (cached)": "DEFEATED",
         "masquerading server": "DEFEATED", "stolen ticket, other host": "RD_AP_BADD",
         "stolen ticket, victim host": "SUCCEEDS until expiry",
         "offline dictionary (weak pw)": "SUCCEEDS (design edge)"},
        paper=("Eavesdropping, replay and a masquerading server are defeated; a stolen ticket "
               "works only from the victim's host until expiry; weak passwords stay guessable."),
        note=("Refusing a forged request is one `krb_rd_req` (`core.applib.ap_us`): no DoS "
              "amplifier."),
    ),
    Experiment(
        "L1", "Section 8: the ticket-lifetime tradeoff (ablation)",
        lambda: (0.5, 1, 2, 4, 8, 24), lambda hours: {
            "prompts_and_stolen_window_h_by_life_h": {h: lifetime_day(h) for h in hours}},
        {"prompts_and_stolen_window_h_by_life_h": {
            0.5: (25, 0.75), 1: (13, 1.25), 2: (7, 2.25), 4: (4, 2.25), 8: (2, 6.25),
            24: (1, 22.25)}},
        paper=("Long lifetimes extend a stolen ticket's exposure; short ones force repeated "
               "password entry."),
        note=("A twelve-hour day, a service use every quarter hour, a theft two hours in. Eight "
              "hours is the paper's default."),
    ),
    Experiment(
        "W1", "Figure 9 supplement: bytes on the wire", lambda: KeyGenerator(seed=b"sizes"),
        wire_act,
        {"sealed_ticket_authenticator": (120, 64),
         "message_bytes": {"AS_REQ": 92, "AS_REP": 258, "TGS_REQ": 264, "TGS_REP": 258,
                           "AP_REQ": 198},
         "login_plus_service_bytes": 1070, "largest_message": at_most(1500)},
        paper="Every exchange is one datagram each way (Figure 9).",
    ),
    Experiment(
        "C2", "Section 2.2 supplement: the encryption library's operations",
        lambda: KeyGenerator(seed=b"crypto-bench").session_key(), crypto_act,
        {"des_block_of_zeros": "cec667028604a77e", "sealed_bytes_100_1024": (120, 1040),
         "unseal_round_trip": True, "string_to_key": "abb3d0dfd907f1c8",
         "cbc_mac_1024": "b59d07042883b76e", "quad_cksum_1024": 1157173011,
         "kdc_session_key": "94ea62f2b90e859e"},
        paper=("Section 2.2 offers \"several methods of encryption ... with tradeoffs between "
               "speed and security\"."),
        note=("A kernel change that alters a byte fails here. Costs are the ledger's `crypto.*` "
              "probes."),
    ),
    Experiment(
        "S9b", "Section 9 supplement: one KDC's capacity for the busiest hour",
        lambda: burst(64, 1), capacity_act,
        {"served_per_sim_s": 347.8, "busy_sim_s_per_hour": 20.6,
         "utilisation": at_most(0.10)},
        paper="Section 9: Athena's authentication load in its busiest hour.",
        note=("A saturating burst at one worker under the runtime's cost model. A request's real "
              "cost is the ledger's `core.kdc.rpc_as_us`."),
    ),
    Experiment(
        "P1", "Extension: preauthentication against an active AS probe",
        lambda: (preauth_realm(False, b"p1-open"), preauth_realm(True, b"p1-hard"),
                 preauth_realm(True, b"p1-cost")), preauth_act,
        {"harvested_of_30_open_hardened": (30, 0), "preauth_login": "accepted",
         "kdc_requests_per_preauth_login": 2},
        paper="The 1988 AS answers any request for any user's ticket, sealed in that user's key.",
        note=("Extension, off by default (`ATTR_REQUIRE_PREAUTH`). It closes the probe, not the "
              "wiretap (`tests/core/test_preauth.py`)."),
    ),
    Experiment(
        "CH", "Section 1's open network: logins against KDC-port loss", lambda: (0.0, 0.10, 0.25),
        chaos_act,
        {"by_loss_rate": {
            0.0: {"ok": 40, "attempts": 80, "drops": 0, "duplicates": 0, "replays_absorbed": 0},
            0.10: {"ok": 40, "attempts": 85, "drops": 5, "duplicates": 15,
                   "replays_absorbed": 8},
            0.25: {"ok": 40, "attempts": 105, "drops": 25, "duplicates": 17,
                   "replays_absorbed": 9}},
         "attempts_per_login": Holds("starts at 2 and never falls", lambda v: v[0] == 2.0
                                     and v == sorted(v)),
         "fewest_ok": at_least(38)},
        paper="The network is open: a datagram may be lost, duplicated or replayed.",
        note=("Forty logins with a retry budget; a quarter of KDC-port datagrams are duplicated "
              "whenever loss is on. Faults cost retransmissions, not logins."),
    ),
    Experiment(
        "RT", "Section 9 supplement: KDC worker-pool scaling (login_burst row)",
        lambda: {(n, w): burst(n, w) for n in (64, 128) for w in (1, 2, 4)}, runtime_act,
        {"ok_shed_makespan_ms": {
            "64x1": (64, 0, 184.0), "64x2": (64, 0, 110.78), "64x4": (64, 0, 82.53),
            "128x1": (89, 39, 246.0), "128x2": (111, 17, 164.39),
            "128x4": (128, 0, 111.17)},
         "every_request_accounted": True,
         "speedup_1_to_4_workers": Holds(">= 1.5 at each burst size", lambda v: min(
             v.values()) >= 1.5),
         "digests": {"64x1": "afadb543f03a970d", "64x2": "76484e1f53e4560e",
                     "64x4": "9a75012c36b5f54b", "128x1": "43494cdb9eb09b4f",
                     "128x2": "0bc1cacd25bcd901", "128x4": "9e6add2d6d6220bf"},
         "same_seed_summary": True, "registry_has": True},
        paper="A KDC answers requests from a whole campus.",
        note=("The `login_burst` row at two burst sizes and three pool sizes, in simulated time. "
              "Every request is served or shed with `KDC_OVERLOADED`."),
    ),
    Experiment(
        "RS", "Figure 13 extension: delta against full-dump propagation",
        lambda: (1_000, 10_000, 50_000), replication_act,
        {"bytes_by_principals": {
            1_000: {"full": 208828, "low": 2546, "high": 4986, "full_converged": True,
                    "low_converged": True, "high_converged": True,
                    "low_digest": "e14da799ac01d7c9"},
            10_000: {"full": 2080828, "low": 2546, "high": 48906, "full_converged": True,
                    "low_converged": True, "high_converged": True,
                    "low_digest": "4e061e66cee74bf1"},
            50_000: {"full": 10400828, "low": 2546, "high": 244106, "full_converged": True,
                    "low_converged": True, "high_converged": True,
                    "low_digest": "ddf407af86ff42f4"}},
         "full_over_low_churn_delta": at_least(10.0),
         "high_churn_delta_over_full": at_most(1.0), "same_seed_rerun": True},
        paper="Figure 13 propagates the whole database every hour.",
        note=("Two slaves: a forced full dump, then a delta after ten password changes and one "
              "after 2% of the realm changed."),
    ),
    Experiment(
        "OT", "Section 9 supplement: tracing a login storm",
        lambda: scenarios.run("login_burst", SEED), trace_act,
        {"posted_ok_shed": (128, 111, 17), "traces": 128, "full_trees": 111,
         "shed_audits_joined": (17, 17), "handler_spans_broken_down": True,
         "export_bytes_sha256": (211070, "bc2bf9444050a836"), "same_seed_export": True},
        paper="Section 9's campus logs in at once.",
        note=("Shed logins join their `overload_shed` audit event by trace id. Tracing's wall-"
              "time cost is the ledger's `driver.trace_overhead_x`."),
    ),
    Experiment(
        "SC", "Section 9 extension: every chaos campaign at default scale",
        sweep, campaigns_act,
        {"failing": [], "digests": {
            "athena_hour": "afac95fe73e4a06c", "clock_skew_epidemic": "38908f0d40108e64",
            "login_burst": "fdb5d81673e06f49", "lossy_wan_degradation": "0fb2f5a93ccce60a",
            "master_assassination": "2537e55fb31c3d20",
            "morning_login_storm": "a1f8dff605e716b5",
            "nfs_fleet_mount_storm": "b4d56d89b2fb7894",
            "request_plane_saturation": "c4a122832b40f60c",
            "rolling_kdc_upgrade": "dd560e155072529e",
            "shard_rebalance_under_load": "c1db65f3158422ab",
            "slave_outage_peak": "d27dca4d998b11d2"},
         "p95_at_least_p50": True, "assassination_promotions_audits_rejoins": (1.0, 1.0, 1.0),
         "new_master_differs": True, "same_seed_sweep": True},
        paper="Section 9: a master, its slaves and failover serve the campus.",
        note="The `repro.scenarios` campaigns at seed 1988; docs/OPERATIONS.md §7 describes them.",
    ),
    Experiment(
        "RP", "Appendix extension: the batched request plane",
        lambda: [athena(seed=b"request-plane") for _ in range(3)], request_plane_act,
        {"buffer_equals_singles_caches_off": True, "replies_per_buffer": [128] * 4,
         "wide_lane_blocks_per_request": 41.0, "skeleton_hits_per_request": 1.0},
        paper="The appendix: per-transaction encryption cost decides a design.",
        note=("Caches off, a buffer and its frames one per call must answer alike. The rate is "
              "`core.kdc.as_us_b1` ÷ `core.kdc.as_us_b128`."),
    ),
    Experiment(
        "SH", "Section 9 extension: sharding 100,000 principals",
        lambda: {n: scenarios.run(SHARD_CELL, SEED, n_shards=n) for n in (1, 2, 4)},
        shard_act,
        {"bursts_passed": True, "sim_req_per_s_by_shards": {1: 780.0, 2: 1272.3, 4: 2461.8},
         "scale_1_to_4": at_least(2.8), "outcomes_steady_moved": ({"ok": 200}, {"ok": 200}),
         "p99_ms_steady_moved": (26.0, 26.0), "p99_ratio": at_most(2.0),
         "records_moved_epoch": (31679, 2), "same_seed_ring_and_burst": (True, True),
         "digest_2_shards": "acd9f2fcda5f5da6"},
        paper="Section 9 extension: the principal space partitioned across KDC shards.",
        note=("A consistent-hash ring; each cell is an open-loop AS burst. A live `move_range` "
              "runs mid-storm, and stations locate afresh at login."),
    ),
    Experiment(
        "NF", "Appendix extension: the Kerberized NFS fleet",
        lambda: {mode: nfs_fleet(mode) for mode in (AuthMode.MAPPED, AuthMode.KERBEROS_RPC)},
        fleet_act,
        {"mapped": {"digest": "91111e1cdb58cb65", "every_server_read": True,
                    "kernel_map_lookups": 400, "des_verifications": 0,
                    "same_seed_digests": ["6be3f34c85e5017b"] * 2},
         "kerberos-rpc": {"digest": "9b56c260c43e24ec", "every_server_read": True,
                          "kernel_map_lookups": 0, "des_verifications": 400,
                          "same_seed_digests": ["415fb520deb293a1"] * 2}},
        paper="The appendix's mount-time mapping, at fleet scale.",
        note=("Four servers, eight stations. Configs and faults are swept by "
              "`tests/apps/nfs_conformance/` (`-m nfs`)."),
    ),
)
