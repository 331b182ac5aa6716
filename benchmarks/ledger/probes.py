"""Direct timings of each layer's public functions.

The traced run ranks layers but carries the profiler's bias; a probe
calls one public function in a tight loop with nothing else running and
reports the best of a few repeats, so it is the unbiased per-unit cost a
layer change should move first.  Inputs that a cache could remember are
never reused where the metric says "never-seen" or "cold".
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, Tuple

from repro.core import (
    AsRequest,
    KdcReply,
    MessageType,
    decode_message,
    encode_message,
    krb_mk_priv,
    krb_mk_rep,
    krb_mk_req,
    krb_rd_priv,
    krb_rd_rep,
    krb_rd_req,
)
from repro.crypto import (
    DesKey,
    KeyGenerator,
    keycache,
    seal,
    seal_many,
    string_to_key,
    unseal,
)
from repro.encode import BatchReader, BatchWriter, pack_frames
from repro.netsim import KERBEROS_PORT, Network, SimClock
from repro.principal import tgs_principal
from repro.runtime import EventScheduler

from benchmarks.ledger.measure import factor, yardstick_rate
from benchmarks.ledger.world import REALM_NAME, WIRE_LATENCY, Scale, World, rng_for

REPEATS = 3
MESSAGE_BYTES = 128
#: 8 header + 128 data + 8 trailer, in 8-byte DES blocks.
MESSAGE_BLOCKS = (8 + MESSAGE_BYTES + 8) // 8
BULK_BYTES = 4096
ECHO_PORT = 7


def best_seconds(fn: Callable[[], object], min_seconds: float) -> float:
    """Best calibrated seconds per call of ``fn`` over ``REPEATS``
    repeats, each looping for at least ``min_seconds`` of wall time
    between two yardstick readings."""
    best = float("inf")
    for _ in range(REPEATS):
        calls = 0
        before = yardstick_rate()
        t0 = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                break
        best = min(best, elapsed * factor(before, yardstick_rate()) / calls)
    return best


def one_shot(fn: Callable[[], object]) -> Tuple[float, object]:
    """Calibrated seconds of a single call, and what it returned."""
    before = yardstick_rate()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    return elapsed * factor(before, yardstick_rate()), result


def run_probes(
    seed: int, scale: Scale, min_seconds: float
) -> Dict[str, Tuple[float, str]]:
    keycache.clear()
    out: Dict[str, Tuple[float, str]] = {}

    def us(name: str, fn, per: float = 1.0) -> None:
        out[name] = (1e6 * best_seconds(fn, min_seconds) / per, "us")

    _crypto(seed, us, out, min_seconds)
    _encode(us)
    _netsim_runtime(us)
    _realm(seed, scale, us, out, min_seconds)
    return out


def _crypto(seed, us, out, min_seconds) -> None:
    keygen = KeyGenerator(seed=f"ledger-probe-{seed}".encode())
    keys = [keygen.session_key() for _ in range(128)]
    message = keygen.random_bytes(MESSAGE_BYTES)
    key = keys[0]
    us("crypto.seal1_us_per_block",
       lambda: unseal(key, seal(key, message)), per=2 * MESSAGE_BLOCKS)
    for lanes in (8, 128):
        items = [(k, message) for k in keys[:lanes]]
        us(f"crypto.seal{lanes}_us_per_block",
           lambda items=items: seal_many(items), per=lanes * MESSAGE_BLOCKS)
    # Exp HP's level-1 figure: payload bytes per seal+unseal round trip.
    bulk = keygen.random_bytes(BULK_BYTES)
    seconds = best_seconds(lambda: unseal(key, seal(key, bulk)), min_seconds)
    out["crypto.bulk_mb_per_s"] = (BULK_BYTES / seconds / 1e6, "MB/s")
    # The plain constructor never consults the schedule cache.
    raw_keys = itertools.cycle([keygen.session_key_bytes() for _ in range(64)])
    us("crypto.key_schedule_us", lambda: DesKey(next(raw_keys)))
    fresh = itertools.count()
    us("crypto.string_to_key_us",
       lambda: string_to_key(f"never-seen-{seed}-{next(fresh)}"))


def _encode(us) -> None:
    client = tgs_principal(REALM_NAME).with_realm(REALM_NAME)
    request = AsRequest(
        client=client, service=tgs_principal(REALM_NAME),
        requested_life=3600.0, timestamp=1.5,
    )
    reply = KdcReply(client=client, sealed_body=bytes(176))

    def one_exchange() -> None:
        decode_message(encode_message(MessageType.AS_REQ, request))
        decode_message(encode_message(MessageType.AS_REP, reply))

    us("encode.msg_us", one_exchange)
    wires = [encode_message(MessageType.AS_REQ, request)] * 128

    def one_batch() -> None:
        BatchReader(pack_frames(wires)).frames()
        writer = BatchWriter()
        for _ in range(128):
            writer.add(MessageType.AS_REP, reply)
        writer.finish()

    us("encode.batch128_us_per_frame", one_batch, per=128)


def _netsim_runtime(us) -> None:
    net = Network(latency=WIRE_LATENCY)
    a, b = net.add_host("probe-a"), net.add_host("probe-b")
    b.bind(ECHO_PORT, lambda datagram: datagram.payload)
    payload = bytes(64)
    us("netsim.echo_rpc_us", lambda: a.rpc(b.address, ECHO_PORT, payload))

    scheduler = EventScheduler(SimClock())

    def hundred_events() -> None:
        for _ in range(100):
            scheduler.after(0.001, _nothing)
        scheduler.run_until_idle()

    us("runtime.event_us", hundred_events, per=100)


def _nothing() -> None:
    pass


def _realm(seed, scale, us, out, min_seconds) -> None:
    """Probes that need a populated realm: one master, one slave."""
    world = World(seed, scale, slaves=1)
    db, kdc, realm = world.site.db, world.site.kdc, world.realm
    rng = rng_for(seed, "probes")
    n_users = len(world.users)
    principals = [world.user_principal(i) for i in range(n_users)]

    # Cold: cycle through more principals than the record cache holds, in
    # a fixed order, so an LRU of any smaller size misses every time.
    cold = itertools.cycle(principals)
    us("database.get_record_cold_us", lambda: db.get_record(next(cold)))
    warm = itertools.cycle(principals[:64])
    us("database.get_record_warm_us", lambda: db.get_record(next(warm)))
    keygen = KeyGenerator(seed=f"ledger-probe-db-{seed}".encode())
    new_keys = itertools.cycle([keygen.session_key() for _ in range(32)])
    victims = itertools.cycle(principals[-64:])
    us("database.change_key_us",
       lambda: db.change_key(next(victims), new_key=next(new_keys)))

    station = world.station()
    source = station.host.address

    def as_wire(user: int) -> bytes:
        return encode_message(MessageType.AS_REQ, AsRequest(
            client=principals[user], service=tgs_principal(REALM_NAME),
            requested_life=3600.0, timestamp=0.0,
        ))

    for batch in (1, 8, 128):
        buffers = itertools.cycle([
            pack_frames([as_wire(rng.randrange(n_users)) for _ in range(batch)])
            for _ in range(max(2, 256 // batch))
        ])
        us(f"core.kdc.as_us_b{batch}",
           lambda buffers=buffers: kdc.process_request_buffer(
               next(buffers), source),
           per=batch)
    wires = itertools.cycle([as_wire(rng.randrange(n_users)) for _ in range(256)])
    kdc_address = world.site.master_host.address
    us("core.kdc.rpc_as_us",
       lambda: station.host.rpc(kdc_address, KERBEROS_PORT, next(wires)))

    # Anyone but the principals whose keys the write probe just changed.
    name, password = world.users[rng.randrange(n_users - 64)]
    station.client.kinit(name, password)
    service = world.services[0]
    cred = station.client.get_credential(service)
    service_key = realm.service_key(service)
    owner = station.client.principal
    ticks = itertools.count(1)

    def ap_exchange() -> None:
        now = station.host.clock.now() + next(ticks) * 1e-6
        request = krb_mk_req(
            cred.ticket, cred.session_key, owner, source, now=now, mutual=True,
        )
        context = krb_rd_req(request, service, service_key, source, now)
        krb_rd_rep(krb_mk_rep(context), now, cred.session_key)

    us("core.applib.ap_us", ap_exchange)
    data = bytes(64)

    def priv_roundtrip() -> None:
        now = station.host.clock.now()
        krb_rd_priv(
            krb_mk_priv(data, cred.session_key, source, now),
            cred.session_key, expected_sender=source, now=now,
        )

    us("core.applib.priv_us", priv_roundtrip)

    # Replication: the delta path per round of eight changes, then one
    # full Figure 13 dump of the whole population (a single shot: it
    # is hundreds of milliseconds on its own).
    realm.propagate()
    best = float("inf")
    for _ in range(REPEATS):
        for _ in range(8):
            db.change_key(next(victims), new_key=next(new_keys))
        seconds, result = one_shot(realm.propagate)
        best = min(best, seconds)
        if not (result.all_ok and result.deltas == 1):
            raise RuntimeError(f"delta probe fell back: {result.modes}")
    out["replication.propagate_delta8_ms"] = (1e3 * best, "ms")
    seconds, result = one_shot(lambda: realm.propagate(full=True))
    out["replication.full_dump_ms"] = (1e3 * seconds, "ms")
    if not result.all_ok:
        raise RuntimeError(f"full dump probe failed: {result.failures}")
