"""Campaign runs: fast smoke drills and the nine pinned digests in
tier-1, the full SLO sweep and the CLI behind ``-m scenario``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.scenarios as scenarios

REPO = Path(__file__).resolve().parents[2]


class TestSmoke:
    """Small-parameter drills that keep the self-healing loop honest in
    every tier-1 run."""

    def test_morning_login_storm_smoke(self):
        result = scenarios.run(
            "morning_login_storm", seed=2026,
            n_stations=8, n_users=8, window=4.0,
        )
        assert result.passed, [c.as_dict() for c in result.checks]
        assert result.outcomes == {"ok": 8}
        assert len(result.digest) == 64

    def test_master_assassination_smoke(self):
        """The acceptance drill, at smoke scale: the supervisor — not a
        test hand — promotes, and the audit event carries a trace."""
        result = scenarios.run(
            "master_assassination", seed=2026,
            n_stations=6, n_users=6, window=120.0,
            kill_at=20.0, downtime=90.0, run_for=220.0,
        )
        assert result.passed, [c.as_dict() for c in result.checks]
        assert result.notes["promotions"] == 1
        assert result.notes["new_master"] != result.notes["old_master"]

    def test_request_plane_saturation_smoke(self):
        """The ISSUE 8 overload drill at smoke scale: the storm really
        exceeds capacity, sheds are typed, and nobody crashes."""
        result = scenarios.run(
            "request_plane_saturation", seed=2026,
            n_stations=24, n_users=12, queue_limit=4,
            overload_factor=3.0,
        )
        assert result.passed, [c.as_dict() for c in result.checks]
        assert result.notes["shed_total"] >= 1
        assert result.notes["arrival_rate_req_s"] > (
            result.notes["capacity_req_s"]
        )

    @pytest.mark.shard
    def test_shard_rebalance_under_load_smoke(self):
        """The sharding acceptance drill at smoke scale: a live
        move_range mid-storm loses zero logins, records really stream,
        and stale stations are repaired by referrals."""
        result = scenarios.run(
            "shard_rebalance_under_load", seed=2026,
            n_stations=10, n_users=10, window=6.0, move_at=2.0,
        )
        assert result.passed, [c.as_dict() for c in result.checks]
        assert result.outcomes == {"ok": 10}
        assert result.notes["entries_moved"] >= 1
        assert result.notes["ring_epoch"] == 2
        assert result.notes["referral_follows"] >= 1

    @pytest.mark.nfs
    def test_nfs_fleet_mount_storm_smoke(self):
        """The fleet PR's drill at smoke scale: every station mounts,
        does its I/O, probes for a leak (refused), and unmounts clean."""
        result = scenarios.run(
            "nfs_fleet_mount_storm", seed=2026,
            n_servers=2, n_stations=8, n_users=4, window=8.0,
        )
        assert result.passed, [c.as_dict() for c in result.checks]
        assert result.outcomes == {"ok": 8}
        assert result.notes["leaks"] == []
        assert result.notes["residual_mappings"] == 0
        assert result.notes["mounts_mapped"] == 8

    def test_same_seed_summary_is_identical(self):
        kwargs = dict(n_stations=6, n_users=6, window=3.0)
        a = scenarios.run("slave_outage_peak", seed=31, **kwargs)
        b = scenarios.run("slave_outage_peak", seed=31, **kwargs)
        assert json.dumps(a.summary(), sort_keys=True) == json.dumps(
            b.summary(), sort_keys=True
        )

    def test_different_seed_changes_the_digest(self):
        kwargs = dict(n_stations=6, n_users=6, window=3.0)
        a = scenarios.run("morning_login_storm", seed=1, **kwargs)
        b = scenarios.run("morning_login_storm", seed=2, **kwargs)
        assert a.digest != b.digest


#: ``python -m repro.scenarios --seed 1988 --json``, recorded before the
#: compatibility layer was removed; re-record only with a stated reason.
PINNED = json.loads(
    (Path(__file__).with_name("campaign_digests.json")).read_text()
)


@pytest.mark.parametrize("name", sorted(scenarios.names()))
def test_campaign_digest_is_pinned(name):
    """Same seed, same bytes: how a campaign builds its realm, finds
    its KDCs and retries may change only if every outcome does not."""
    pinned = PINNED["campaigns"][name]
    summary = scenarios.run(name, seed=PINNED["seed"]).summary()
    for key in ("digest", "outcomes", "makespan"):
        assert summary[key] == pinned[key], key


@pytest.mark.scenario
class TestFullSweep:
    """Every registered campaign at its default (fleet) scale."""

    @pytest.mark.parametrize("name", sorted(scenarios.names()))
    def test_campaign_meets_its_slos(self, name):
        result = scenarios.run(name, seed=1988)
        assert result.passed, (
            f"{name} missed SLOs: "
            f"{[c.as_dict() for c in result.checks if not c.passed]}"
        )
        assert sum(result.outcomes.values()) >= 1
        assert result.makespan > 0.0


@pytest.mark.scenario
class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.scenarios", *args],
            capture_output=True, text=True, timeout=600,
            cwd=REPO, env={"PYTHONPATH": str(REPO / "src")},
        )

    def test_list(self):
        proc = self.run_cli("--list")
        assert proc.returncode == 0
        for name in scenarios.names():
            assert name in proc.stdout

    def test_single_campaign_with_overrides_and_json(self, tmp_path):
        out = tmp_path / "out.json"
        proc = self.run_cli(
            "morning_login_storm", "--seed", "7", "--json", str(out),
            "-p", "n_stations=6", "-p", "n_users=6", "-p", "window=3.0",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "[PASS] morning_login_storm" in proc.stdout
        data = json.loads(out.read_text())
        assert data["seed"] == 7
        summary = data["campaigns"]["morning_login_storm"]
        assert summary["passed"] is True
        assert summary["params"]["n_stations"] == 6

    def test_failing_slo_exits_nonzero(self):
        # An impossible latency budget: sub-microsecond p95.
        proc = self.run_cli(
            "lossy_wan_degradation", "-p", "n_stations=4", "-p",
            "n_users=4", "-p", "window=2.0", "-p", "loss_rate=0.9",
        )
        assert proc.returncode == 1
        assert "[FAIL]" in proc.stdout
