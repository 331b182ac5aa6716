"""Exp NF — the appendix's performance argument at fleet scale.

The appendix's envelope calculation compared one fileserver under the
shipped mount-time mapping against the rejected per-RPC Kerberos
design.  The fleet PR re-runs that comparison at Athena scale: a
4-server :class:`~repro.realm.nfs_fleet.NfsFleet` under one declarative
config, every server doing real work, with two gates:

* **the appendix's verdict holds fleet-wide**: the same operation
  battery costs strictly more wall-clock under ``KERBEROS_RPC`` (full
  software-DES ``krb_mk_req``/``krb_rd_req`` per transaction) than
  under ``MAPPED`` (one handshake per mount, then a hash lookup);
* **determinism**: the same seed reproduces the same outcome digest
  byte for byte — outcomes, bytes served, and sim timestamps are a
  pure function of ``(seed, config)``; only wall-clock may differ.
"""

import hashlib
import time

import pytest

from repro.apps.nfs import AuthMode, NfsCredential, NfsExportConfig
from repro.netsim import Network
from repro.obs import write_json_snapshot
from repro.realm import NfsFleet, NfsUserSpec, Realm

from benchmarks.bench_util import REALM

pytestmark = [pytest.mark.perf, pytest.mark.nfs]

#: The ISSUE's floor: the comparison must run at fleet scale.
N_SERVERS = 4
#: Two stations per server keeps every kernel map busy.
N_STATIONS = 8
#: Operations per station per run (reads dominate, as on Athena).
N_OPS = 40
SEED = 1988

_cells = {}


def build_cell(mode: AuthMode, seed: int = SEED):
    """A fresh fleet world: N_SERVERS servers, one station per user,
    everyone's private 1 KiB file seeded on their assigned server."""
    net = Network(seed=seed, latency=0.01)
    realm = Realm(net, REALM, seed=seed.to_bytes(8, "big"))
    specs = []
    for i in range(N_STATIONS):
        realm.add_user(f"user{i}", f"pw-{i}")
        specs.append(NfsUserSpec(f"user{i}", 1000 + i))
    fleet = NfsFleet(
        realm,
        n_servers=N_SERVERS,
        config=NfsExportConfig(auth_mode=mode),
        users=specs,
    )
    stations = []
    for i, spec in enumerate(specs):
        site = fleet[i % N_SERVERS]
        cred = NfsCredential(uid=spec.uid, gids=spec.gids)
        site.server.fs.create(f"/u/{spec.username}/data", cred)
        site.server.fs.write(f"/u/{spec.username}/data", b"x" * 1024, cred)
        ws = realm.workstation()
        ws.client.kinit(spec.username, f"pw-{i}")
        client = fleet.client(ws, i % N_SERVERS, uid_on_client=spec.uid)
        if mode == AuthMode.MAPPED:
            client.kerberos_mount(ws.client, site.mount_service)
        elif mode == AuthMode.KERBEROS_RPC:
            client.enable_per_rpc_kerberos(ws.client, site.nfs_service)
        stations.append((client, spec.username))
    return net, fleet, stations


def cell(mode: AuthMode):
    if mode not in _cells:
        _cells[mode] = build_cell(mode)
    return _cells[mode]


def run_workload(net, stations, n_ops: int = N_OPS):
    """The battery, round-robin across stations; returns (wall-clock
    seconds, sha256 outcome digest).  The digest folds in station, op,
    served bytes, and the sim clock — everything seed-determined — and
    deliberately excludes wall time."""
    fingerprint = hashlib.sha256()
    t0 = time.perf_counter()
    for i in range(n_ops):
        for client, username in stations:
            data = client.read(f"/u/{username}/data")
            fingerprint.update(
                f"{username}:read:{len(data)}:{net.clock.now()!r};".encode()
            )
            if i % 10 == 0:
                written = client.write(f"/u/{username}/data", data)
                fingerprint.update(
                    f"{username}:write:{written}:{net.clock.now()!r};".encode()
                )
    return time.perf_counter() - t0, fingerprint.hexdigest()


def test_bench_fleet_mapped_vs_per_rpc():
    """The headline: the rejected design is strictly slower, fleet-wide."""
    results, digests, lookups = {}, {}, {}
    for mode in (AuthMode.MAPPED, AuthMode.KERBEROS_RPC):
        net, fleet, stations = cell(mode)
        run_workload(net, stations, n_ops=5)  # warm up
        results[mode], digests[mode] = run_workload(net, stations)
        # Every server in the fleet did real work.
        for site in fleet.servers:
            assert site.server.ops["READ"] > 0, (
                f"{site.name} served no reads under {mode.value}"
            )
        lookups[mode] = sum(
            site.server.credmap.lookups for site in fleet.servers
        )
    mapped, per_rpc = results[AuthMode.MAPPED], results[AuthMode.KERBEROS_RPC]
    _, fleet_m, _ = cell(AuthMode.MAPPED)
    verifications = sum(
        site.server.kerberos_verifications
        for site in cell(AuthMode.KERBEROS_RPC)[1].servers
    )
    print(f"\nExp NF — {N_STATIONS * N_OPS} ops across {N_SERVERS} servers:")
    print(f"  mount-time mapping : {1e3 * mapped:8.1f} ms wall "
          f"({lookups[AuthMode.MAPPED]} kernel-map lookups)")
    print(f"  per-RPC Kerberos   : {1e3 * per_rpc:8.1f} ms wall "
          f"({verifications} DES verifications)")
    print(f"  slowdown           : {per_rpc / mapped:6.1f}x")
    assert per_rpc > mapped, (
        "per-RPC Kerberos must cost more than the mapping design "
        f"(got {per_rpc:.4f}s vs {mapped:.4f}s)"
    )
    test_bench_fleet_mapped_vs_per_rpc.result = (results, digests)


def test_bench_same_seed_byte_identical():
    """Two fresh same-seed cells per mode: identical digests."""
    reproduced = {}
    for mode in (AuthMode.MAPPED, AuthMode.KERBEROS_RPC):
        net_a, _fleet_a, stations_a = build_cell(mode)
        net_b, _fleet_b, stations_b = build_cell(mode)
        _, digest_a = run_workload(net_a, stations_a, n_ops=10)
        _, digest_b = run_workload(net_b, stations_b, n_ops=10)
        assert digest_a == digest_b, (
            f"same seed, different digests under {mode.value}"
        )
        reproduced[mode.value] = digest_a
    print("\nExp NF — determinism: "
          + ", ".join(f"{m} {d[:16]}…" for m, d in reproduced.items()))
    test_bench_same_seed_byte_identical.result = reproduced


def test_bench_write_snapshot(tmp_path):
    results, digests = getattr(
        test_bench_fleet_mapped_vs_per_rpc, "result", ({}, {})
    )
    reproduced = getattr(test_bench_same_seed_byte_identical, "result", {})
    mapped = results.get(AuthMode.MAPPED, 0.0)
    per_rpc = results.get(AuthMode.KERBEROS_RPC, 0.0)
    net, _fleet, _stations = cell(AuthMode.MAPPED)
    summary = {
        "n_servers": N_SERVERS,
        "n_stations": N_STATIONS,
        "ops_per_station": N_OPS,
        "mapped_wall_s": round(mapped, 4),
        "per_rpc_wall_s": round(per_rpc, 4),
        "per_rpc_slowdown": (
            round(per_rpc / mapped, 1) if mapped else 0.0
        ),
        "workload_digests": {
            mode.value: digest for mode, digest in digests.items()
        },
        "same_seed_digests": reproduced,
    }
    snapshot = tmp_path / "nfs_fleet.json"
    write_json_snapshot(
        net.metrics, snapshot, now=net.clock.now(), extra=summary
    )
    print(f"\nwrote {snapshot}: {summary}")
