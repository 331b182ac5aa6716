"""Exp SC — the chaos campaign sweep: SLO verdicts at fleet scale.

The scenario engine (:mod:`repro.scenarios`) turns the paper's
deployment story into named drills; this benchmark runs the full
library at its default parameters and records each campaign's verdict,
latency percentiles, and per-station outcome digest in a JSON snapshot
under pytest's ``tmp_path``.

Shapes to hold: every campaign passes all of its SLOs — including the
master assassination, which must recover through the supervisor with no
manual promotion — and a same-seed rerun reproduces every campaign's
serialized summary byte for byte.
"""

import json

import repro.scenarios as scenarios
from repro.netsim import Network
from repro.obs import write_json_snapshot

SEED = 1988


def run_sweep() -> dict:
    """name -> summary dict for every registered campaign."""
    return {
        name: scenarios.run(name, seed=SEED).summary()
        for name in scenarios.names()
    }


def test_bench_scenario_campaigns(benchmark, tmp_path):
    summaries = run_sweep()
    assert len(summaries) >= 5          # the acceptance floor

    print("\nExp SC — chaos campaigns (seed %d):" % SEED)
    for name, summary in summaries.items():
        verdict = "PASS" if summary["passed"] else "FAIL"
        print(
            f"  [{verdict}] {name:24} makespan {summary['makespan']:7.1f}s  "
            f"p50 {summary['latency_p50']:6.3f}s  "
            f"p95 {summary['latency_p95']:6.3f}s  "
            f"outcomes {summary['outcomes']}"
        )
        assert summary["passed"], (
            f"{name} missed SLOs: "
            f"{[c for c in summary['checks'] if not c['passed']]}"
        )
        assert len(summary["digest"]) == 64
        assert summary["latency_p95"] >= summary["latency_p50"] >= 0.0

    # The self-healing acceptance gate: the assassination recovered via
    # exactly one supervisor-driven promotion, traced and audited.
    assassination = summaries["master_assassination"]
    checks = {c["name"]: c for c in assassination["checks"]}
    assert checks["promotions"]["observed"] == 1.0
    assert checks["audit_joined"]["observed"] >= 1.0
    assert checks["rejoined"]["observed"] >= 1.0
    assert assassination["notes"]["new_master"] != (
        assassination["notes"]["old_master"]
    )

    # Timing hook: wall-clock cost of the fastest drill.
    benchmark.pedantic(
        lambda: scenarios.run("morning_login_storm", seed=SEED),
        rounds=2, iterations=1,
    )

    # The metrics snapshot comes from a dedicated sentinel network
    # (campaigns each build their own world); the per-campaign
    # summaries are the payload.
    sentinel = Network(seed=SEED)
    snapshot = tmp_path / "scenarios.json"
    snap = write_json_snapshot(
        sentinel.metrics,
        snapshot,
        now=0.0,
        extra={
            "experiment": "SC",
            "campaigns": summaries,
            "all_passed": all(s["passed"] for s in summaries.values()),
        },
    )
    assert len(snap["bench"]["campaigns"]) >= 5
    print(f"  snapshot: {snapshot}")


def test_bench_scenarios_same_seed_byte_identical():
    """Determinism gate: the serialized summary of every campaign is
    byte-identical across two same-seed sweeps."""
    first = json.dumps(run_sweep(), sort_keys=True)
    second = json.dumps(run_sweep(), sort_keys=True)
    assert first == second
