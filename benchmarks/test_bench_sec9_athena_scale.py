"""Exp S9 — Section 9: Kerberos at Project Athena's deployment scale.

*"Since January of 1987, Kerberos has been Project Athena's sole means
of authenticating its 5,000 users, 650 workstations, and 65 servers."*

The benchmark runs the ``athena_hour`` campaign row: a realm at that
registered scale (full 5,000 user + 65 service database, master + 2
slaves) and a busy-hour sample of 65 workstations, each logging in and
then working its session.  Shape to hold: the system sustains
deployment-scale state and load, and ticket caching keeps KDC traffic
well below one request per service use.

The busy-hour run also snapshots its full metrics registry under
pytest's ``tmp_path`` (see ``docs/OBSERVABILITY.md``) — per-port
datagram counts, AS/TGS outcomes by error code, replay-cache results,
and the AS-exchange latency histogram, all off the simulated clock.
"""

import repro.scenarios as scenarios
from repro.obs import write_json_snapshot

SEED = 1988
HOUR = scenarios.get("athena_hour")


def test_bench_sec9_busy_hour(benchmark, tmp_path):
    result = benchmark.pedantic(
        scenarios.run, args=(HOUR, SEED), rounds=1, iterations=1,
    )
    realm, params, notes = result.world.realm, result.params, result.notes
    print(f"\nSection 9 — registered: {len(realm.db)} principals "
          f"({params['n_users']} users + {params['n_services']} services "
          f"+ infrastructure)")
    print(f"  busy-hour sample: {notes['logins']} logins, "
          f"{notes['service_uses']} service uses")
    print(f"  KDC messages this hour: {notes['kdc_messages']}")
    print(f"  KDC requests per service use: "
          f"{notes['kdc_requests_per_use']:.2f} (ticket reuse amortizes the TGS)")

    assert result.passed, [c.as_dict() for c in result.checks]
    assert notes["logins"] == params["n_stations"]
    assert notes["service_uses"] == params["n_stations"] * params["uses_per_session"]
    # Shape: caching means fewer KDC exchanges than service uses.
    assert notes["kdc_messages"] < notes["service_uses"]

    # Export the registry as the run's metrics snapshot.
    net = result.world.net
    snapshot = tmp_path / "sec9_metrics.json"
    snap = write_json_snapshot(
        net.metrics,
        snapshot,
        now=net.clock.now(),
        extra={"experiment": "S9", **notes},
    )
    counter_names = {e["name"] for e in snap["counters"]}
    assert {"net.datagrams_total", "kdc.outcomes_total",
            "replay.checks_total"} <= counter_names
    assert any(
        e["name"] == "client.exchange_seconds"
        and e["labels"].get("type") == "as"
        for e in snap["histograms"]
    )
    print(f"  metrics snapshot: {snapshot}")


def test_bench_sec9_kdc_lookup_cost_at_scale(benchmark):
    """A single login against the full 5,000-user database — per-request
    cost must not degrade with registered scale (hash-backed store)."""
    realm = scenarios.run(HOUR, SEED, n_stations=1, uses_per_session=0).world.realm
    ws = realm.workstation()
    username, password = "user04999", "password-4999"

    def login():
        ws.client.kdestroy()
        return ws.client.kinit(username, password)

    tgt = benchmark(login)
    assert tgt is not None
