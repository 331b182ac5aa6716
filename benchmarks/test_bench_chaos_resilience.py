"""Exp CH — resilience sweep: login success vs KDC-port loss rate.

Not a figure from the paper, but its operational premise (Section 1:
"open network" = unreliable network) quantified: how many retransmission
attempts does the retry policy spend, and how many logins still succeed,
as the loss rate on the Kerberos port climbs.  Shape to hold: with a
bounded retry budget, success stays at 100% through double-digit loss
rates, degrading only as loss approaches the retry budget's ceiling.

Snapshots the sweep summary plus the full metrics registry of the
harshest surviving configuration under pytest's ``tmp_path``.
"""

from repro.core import RetryPolicy
from repro.netsim import Duplicate, Loss, Match, Network, Unreachable
from repro.netsim.ports import KERBEROS_PORT
from repro.obs import write_json_snapshot
from repro.realm import Realm, RealmTopology

from benchmarks.bench_util import REALM

LOSS_RATES = [0.0, 0.10, 0.25]
DUPLICATE_RATE = 0.25
N_LOGINS = 40
POLICY = RetryPolicy(max_attempts=8, base_delay=0.05, jitter=0.5)


def run_login_storm(loss_rate, seed=1988):
    """N_LOGINS fresh logins + service tickets over a faulty KDC port;
    returns (net, successes, attempts)."""
    net = Network(seed=seed)
    realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=1))
    realm.add_user("jis", "jis-pw")
    service, _ = realm.add_service("rlogin", "priam")
    realm.propagate()
    if loss_rate:
        net.faults.add(Loss(loss_rate, Match.build(port=KERBEROS_PORT)))
        net.faults.add(Duplicate(DUPLICATE_RATE, Match.build(port=KERBEROS_PORT)))

    successes = 0
    for _ in range(N_LOGINS):
        ws = realm.workstation(retry_policy=POLICY)
        try:
            ws.client.kinit("jis", "jis-pw")
            if ws.client.get_credential(service) is not None:
                successes += 1
        except Unreachable:
            pass
    # Only the login-path ops — propagation (op="kprop") retries too and
    # would muddy the per-login arithmetic.
    attempts = net.metrics.total("retry.attempts_total", op="as") \
        + net.metrics.total("retry.attempts_total", op="tgs")
    return net, successes, attempts


def test_bench_chaos_login_sweep(benchmark, tmp_path):
    rows = []
    last_net = None
    for rate in LOSS_RATES:
        net, ok, attempts = run_login_storm(rate)
        rows.append({
            "loss_rate": rate,
            "duplicate_rate": DUPLICATE_RATE if rate else 0.0,
            "logins": N_LOGINS,
            "successes": ok,
            "retry_attempts": attempts,
            "attempts_per_login": attempts / N_LOGINS,
            "drops": net.metrics.total("net.drops_total", reason="loss"),
            "duplicates": net.metrics.total("net.duplicates_total"),
            "replays_absorbed": net.metrics.total(
                "replay.checks_total", result="replay"
            ),
        })
        last_net = net

    # Time the harshest configuration as the benchmark payload.
    benchmark.pedantic(
        lambda: run_login_storm(LOSS_RATES[-1], seed=7), rounds=2, iterations=1
    )

    print("\nExp CH — login resilience vs KDC-port loss "
          f"(retry budget: {POLICY.max_attempts} attempts):")
    print(f"  {'loss':>6} {'ok':>5} {'attempts/login':>15} {'replays':>8}")
    for row in rows:
        print(f"  {row['loss_rate']:>6.0%} {row['successes']:>3}/{N_LOGINS}"
              f" {row['attempts_per_login']:>15.2f}"
              f" {row['replays_absorbed']:>8.0f}")

    # Shape: clean network is all-success at exactly 2 attempts per login
    # (one AS + one TGS); faults cost extra attempts, not logins.
    assert rows[0]["successes"] == N_LOGINS
    assert rows[0]["attempts_per_login"] == 2.0
    for row in rows[1:]:
        assert row["successes"] >= 0.95 * N_LOGINS
        assert row["retry_attempts"] > 2 * N_LOGINS
    # The sweep is monotone in effort: more loss, more retransmission.
    efforts = [row["attempts_per_login"] for row in rows]
    assert efforts == sorted(efforts)

    snapshot = tmp_path / "chaos_metrics.json"
    write_json_snapshot(
        last_net.metrics,
        snapshot,
        now=last_net.clock.now(),
        extra={"experiment": "CH", "sweep": rows},
    )
    print(f"  snapshot: {snapshot}")
