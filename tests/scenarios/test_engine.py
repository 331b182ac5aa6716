"""Scenario engine mechanics: registry, overrides, SLO evaluation,
percentiles, outcome accounting, and how a burst's posts are labelled."""

from dataclasses import replace

import pytest

import repro.scenarios as scenarios
from repro.core import ErrorCode, KerberosClient, KerberosError
from repro.netsim import FaultError, HostDown
from repro.scenarios import engine
from repro.scenarios.engine import (
    AddRule,
    CampaignResult,
    Crash,
    SloSpec,
    StationRecord,
    classify_failure,
    percentile,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.95) == 0.0

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(values, 0.50) == 5.0
        assert percentile(values, 0.95) == 10.0
        assert percentile(values, 0.99) == 10.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == percentile(
            [1.0, 2.0, 3.0], 0.5
        )


class TestSlo:
    def test_min_kind(self):
        spec = SloSpec("success_rate", "min", 0.99)
        assert spec.check(1.0).passed
        assert spec.check(0.99).passed
        assert not spec.check(0.98).passed

    def test_max_kind(self):
        spec = SloSpec("p95", "max", 5.0)
        assert spec.check(5.0).passed
        assert not spec.check(5.01).passed

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SloSpec("x", "between", 1.0).check(0.5)


class TestAccounting:
    def records(self):
        return [
            StationRecord("ws1", "u1", "ok", 1.0),
            StationRecord("ws2", "u2", "ok", 3.0),
            StationRecord("ws3", "u3", "unavailable", 30.0),
        ]

    def test_outcomes_and_percentiles(self):
        result = CampaignResult("t", 1, {})
        result.account(self.records())
        assert result.outcomes == {"ok": 2, "unavailable": 1}
        assert result.success_rate() == pytest.approx(2 / 3)
        # Percentiles are over successful operations only.
        assert result.latency_p95 == 3.0

    def test_digest_is_order_sensitive_and_stable(self):
        a = CampaignResult("t", 1, {})
        b = CampaignResult("t", 1, {})
        c = CampaignResult("t", 1, {})
        a.account(self.records())
        b.account(self.records())
        c.account(list(reversed(self.records())))
        assert a.digest == b.digest
        assert c.digest != a.digest

    def test_evaluate_missing_observation_counts_as_zero(self):
        result = CampaignResult("t", 1, {})
        result.evaluate([SloSpec("absent", "min", 1.0)], {})
        assert not result.passed
        assert result.checks[0].observed == 0.0


class TestRegistry:
    def test_library_is_registered(self):
        assert set(scenarios.names()) >= {
            "morning_login_storm",
            "slave_outage_peak",
            "master_assassination",
            "rolling_kdc_upgrade",
            "clock_skew_epidemic",
            "lossy_wan_degradation",
        }

    def test_unknown_campaign_is_a_clear_error(self):
        with pytest.raises(KeyError, match="no campaign"):
            scenarios.run("nonexistent_drill")

    def test_unknown_override_is_rejected(self):
        with pytest.raises(KeyError, match="no parameter"):
            scenarios.run("morning_login_storm", n_typo=3)

    def test_a_nan_jitter_override_is_refused(self):
        """``-p jitter_high=NaN`` (JSON reads ``NaN``) builds no rule:
        a NaN delay would run every jittered leg at no defined time."""
        with pytest.raises(FaultError, match="jitter bounds"):
            scenarios.run("lossy_wan_degradation", jitter_high=float("nan"))

    def test_no_stations_is_refused_before_a_realm_is_built(self, monkeypatch):
        """``-p n_stations=0`` would run no station and report the empty
        run as an SLO miss; it is refused, naming the knob, first."""
        monkeypatch.setattr(engine, "Network", None)  # building one would raise
        with pytest.raises(ValueError, match="n_stations must be at least 1, got 0"):
            scenarios.run("request_plane_saturation", n_stations=0)

    def test_an_override_is_a_diff_against_its_row(self):
        """``-p`` derives a row; the library's row is left as it was."""
        row = scenarios.get("login_burst")
        before = row.defaults
        derived = row.override(n_stations=8, workers=4)
        assert row.defaults == before
        assert row.diff(derived) == ["n_stations: 128 -> 8", "workers: 2 -> 4"]
        assert derived.diff(derived) == []
        assert scenarios.run(derived, seed=3).params == scenarios.run(
            "login_burst", seed=3, n_stations=8, workers=4
        ).params

    def test_run_stamps_name_seed_params(self):
        result = scenarios.run(
            "morning_login_storm", seed=5, n_stations=4, n_users=4,
            window=2.0,
        )
        assert result.name == "morning_login_storm"
        assert result.seed == 5
        assert result.params["n_stations"] == 4
        summary = result.summary()
        assert summary["passed"] == result.passed
        assert summary["digest"] == result.digest


class TestOnlyFailuresAreLabelled:
    """A protocol or network failure is a station outcome; anything else
    is a fault of the program and fails the run."""

    def test_a_network_failure_keeps_its_label(self):
        assert classify_failure(HostDown("athena-kerberos is down")) == "error:HostDown"
        assert classify_failure(KerberosError(ErrorCode.RD_AP_TIME)) == "refused:skew"

    @pytest.mark.parametrize("fault", [RecursionError, AssertionError])
    def test_any_other_exception_propagates_out_of_run(self, monkeypatch, fault):
        def broken(*args, **kwargs):
            raise fault("a bug, not an outcome")

        monkeypatch.setattr(KerberosClient, "kinit", broken)
        with pytest.raises(fault, match="a bug, not an outcome"):
            scenarios.run("morning_login_storm", seed=5, n_stations=4, n_users=4, window=2.0)
        with pytest.raises(fault):
            classify_failure(fault("a bug, not an outcome"))


class TestBurstFailureSplit:
    """A posted request's record is read from its reply, with the labels
    a paced act's failure gets: a crashed KDC and a lost datagram are
    told apart, and neither is a typed refusal."""

    def burst(self, *faults):
        row = replace(scenarios.get("login_burst"), faults=lambda p: faults)
        return scenarios.run(row, seed=4, n_users=6, n_stations=6, window=0.01)

    def test_crashed_kdc_counts_as_host_down(self):
        result = self.burst(Crash(0.0, 1000.0, slave=None))
        assert result.outcomes == {"error:HostDown": 6}
        assert result.success_rate() == 0.0

    def test_healthy_kdc_has_no_losses(self):
        result = self.burst()
        assert result.outcomes == {"ok": 6}

    def test_lost_requests_count_as_timed_out(self):
        from repro.netsim import Loss, Match
        from repro.netsim.ports import KERBEROS_PORT

        result = self.burst(AddRule(Loss(1.0, Match.build(port=KERBEROS_PORT))))
        assert result.outcomes == {"error:Unreachable": 6}
