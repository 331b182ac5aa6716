"""Metrics registry: identity, label cardinality, histogram edges,
snapshot determinism."""

import pytest

from repro.netsim import SimClock
from repro.obs import (
    MetricsError,
    MetricsRegistry,
    labels_key,
    render_prometheus,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestIdentity:
    def test_same_name_same_labels_same_instrument(self, registry):
        a = registry.family("counter", "x.total", (), {"kind": "as"})[()]
        b = registry.family("counter", "x.total", (), {"kind": "as"})[()]
        assert a is b

    def test_label_order_is_irrelevant(self, registry):
        a = registry.family("counter", "x.total", (), {"a": "1", "b": "2"})[()]
        b = registry.family("counter", "x.total", (), {"b": "2", "a": "1"})[()]
        assert a is b

    def test_label_values_stringified(self, registry):
        a = registry.family("counter", "x.total", (), {"port": 750})[()]
        b = registry.family("counter", "x.total", (), {"port": "750"})[()]
        assert a is b

    def test_different_labels_different_instruments(self, registry):
        a = registry.family("counter", "x.total", (), {"kind": "as"})[()]
        b = registry.family("counter", "x.total", (), {"kind": "tgs"})[()]
        assert a is not b
        a.inc(3)
        assert b.value == 0

    def test_labels_key_normalizes(self):
        assert labels_key({"b": 2, "a": "1"}) == (("a", "1"), ("b", "2"))
        assert labels_key(None) == ()
        assert labels_key({}) == ()

    def test_kind_clash_rejected(self, registry):
        registry.family("counter", "x.total", ())[()]
        with pytest.raises(MetricsError):
            registry.family("gauge", "x.total", ())[()]
        with pytest.raises(MetricsError):
            registry.family("histogram", "x.total", (), buckets=(1.0,))[()]

    def test_kind_clash_rejected_across_label_sets(self, registry):
        registry.family("counter", "x.total", (), {"kind": "as"})[()]
        with pytest.raises(MetricsError):
            registry.family("gauge", "x.total", (), {"kind": "tgs"})[()]

    def test_counter_cannot_decrease(self, registry):
        counter = registry.family("counter", "x.total", ())[()]
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.family("gauge", "x.size", ())[()]
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4


class TestCardinality:
    def test_cap_on_label_sets_per_name(self):
        registry = MetricsRegistry(max_series_per_name=8)
        for i in range(8):
            registry.family("counter", "x.total", (), {"user": str(i)})[()]
        with pytest.raises(MetricsError):
            registry.family("counter", "x.total", (), {"user": "8"})[()]

    def test_existing_series_unaffected_by_cap(self):
        registry = MetricsRegistry(max_series_per_name=1)
        counter = registry.family("counter", "x.total", (), {"user": "0"})[()]
        # Re-fetching the existing series is fine even at the cap.
        assert registry.family("counter", "x.total", (), {"user": "0"})[()] is counter

    def test_cap_is_per_name(self):
        registry = MetricsRegistry(max_series_per_name=1)
        registry.family("counter", "x.total", (), {"a": "1"})[()]
        registry.family("counter", "y.total", (), {"a": "1"})[()]  # different name: fine


class TestFamily:
    def test_a_key_binds_the_series_a_lookup_by_name_finds(self, registry):
        family = registry.family("counter", "x.total", ("kind", "code"), {"server": "k"})
        assert registry.instruments() == []  # nothing bound before a touch
        family["as", "OK"].inc(2)
        assert family["as", "OK"] is registry.get(
            "x.total", {"code": "OK", "kind": "as", "server": "k"}
        )
        assert registry.total("x.total", kind="as") == 2

    def test_one_label_keys_by_its_value_and_none_by_the_empty_tuple(self, registry):
        registry.family("gauge", "x.depth", ("port",))[88].set(3)
        registry.family("histogram", "x.wait", (), {"s": "q"}, buckets=(1.0, 2.0))[()].observe(1.5)
        assert registry.get("x.depth", {"port": 88}).value == 3
        assert registry.get("x.wait", {"s": "q"}).bucket_counts == [0, 1]

    def test_kind_checks_and_the_cap_hold_at_first_touch(self):
        registry = MetricsRegistry(max_series_per_name=2)
        registry.family("counter", "x.total", (), {"user": "0"})[()]
        with pytest.raises(MetricsError):
            registry.family("gauge", "x.total", ("user",))["1"]
        family = registry.family("counter", "x.total", ("user",))
        family["1"]
        with pytest.raises(MetricsError):
            family["2"]
        assert "2" not in family


class TestHistogram:
    def test_value_on_boundary_counts_in_bucket(self, registry):
        hist = registry.family("histogram", "h", (), buckets=(1.0, 2.0))[()]
        hist.observe(1.0)  # le-semantics: value <= bound
        assert hist.cumulative_buckets() == [(1.0, 1), (2.0, 1)]

    def test_value_above_all_boundaries_only_in_count(self, registry):
        hist = registry.family("histogram", "h", (), buckets=(1.0, 2.0))[()]
        hist.observe(99.0)
        assert hist.cumulative_buckets() == [(1.0, 0), (2.0, 0)]
        assert hist.count == 1
        assert hist.sum == 99.0

    def test_cumulative_counts_accumulate(self, registry):
        hist = registry.family("histogram", "h", (), buckets=(1.0, 2.0, 4.0))[()]
        for v in (0.5, 1.5, 1.5, 3.0, 8.0):
            hist.observe(v)
        assert hist.cumulative_buckets() == [(1.0, 1), (2.0, 3), (4.0, 4)]
        assert hist.count == 5

    def test_boundaries_must_ascend(self, registry):
        with pytest.raises(MetricsError):
            registry.family("histogram", "h", (), buckets=(2.0, 1.0))[()]
        with pytest.raises(MetricsError):
            registry.family("histogram", "h2", (), buckets=(1.0, 1.0))[()]
        with pytest.raises(MetricsError):
            registry.family("histogram", "h3", (), buckets=())[()]

    def test_boundary_mismatch_rejected(self, registry):
        registry.family("histogram", "h", (), buckets=(1.0, 2.0))[()]
        with pytest.raises(MetricsError):
            registry.family("histogram", "h", (), {"kind": "as"}, buckets=(1.0, 3.0))[()]

    def test_total_refuses_histograms(self, registry):
        registry.family("histogram", "h", (), buckets=(1.0,))[()]
        with pytest.raises(MetricsError):
            registry.total("h")


class TestHistogramEdges:
    def test_identical_reregistration_returns_same_instrument(self, registry):
        first = registry.family("histogram", "h", (), {"kind": "as"}, buckets=(1.0, 2.0))[()]
        again = registry.family("histogram", "h", (), {"kind": "as"}, buckets=(1.0, 2.0))[()]
        assert again is first
        # Same name, same bounds, different labels: a sibling series.
        sibling = registry.family("histogram", "h", (), {"kind": "tgs"}, buckets=(1.0, 2.0))[()]
        assert sibling is not first

    def test_different_bounds_rejected_even_for_new_label_set(self, registry):
        registry.family("histogram", "h", (), buckets=(1.0, 2.0))[()]
        with pytest.raises(MetricsError):
            registry.family("histogram", "h", (), {"kind": "as"}, buckets=(1.0, 2.0, 4.0))[()]

    def test_empty_histogram_percentile_is_zero(self, registry):
        hist = registry.family("histogram", "h", (), buckets=(1.0, 2.0))[()]
        assert hist.percentile(0.5) == 0.0
        assert hist.percentile(1.0) == 0.0

    def test_percentile_quantile_must_be_in_range(self, registry):
        hist = registry.family("histogram", "h", (), buckets=(1.0,))[()]
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(MetricsError):
                hist.percentile(bad)

    def test_percentile_nearest_rank_on_bucket_bounds(self, registry):
        hist = registry.family("histogram", "h", (), buckets=(1.0, 2.0, 4.0))[()]
        for v in (0.5, 1.5, 1.5, 3.0):
            hist.observe(v)
        # Ranks 1..4 land in buckets 1.0, 2.0, 2.0, 4.0.
        assert hist.percentile(0.25) == 1.0
        assert hist.percentile(0.5) == 2.0
        assert hist.percentile(1.0) == 4.0

    def test_percentile_above_all_bounds_is_inf(self, registry):
        import math

        hist = registry.family("histogram", "h", (), buckets=(1.0,))[()]
        hist.observe(99.0)
        assert hist.percentile(0.5) == math.inf

    def test_empty_histogram_exports_zero_series(self, registry):
        registry.family("histogram", "lat_seconds", (), buckets=(0.5, 1.0))[()]
        text = render_prometheus(registry)
        assert 'lat_seconds_bucket{le="0.5"} 0' in text
        assert 'lat_seconds_bucket{le="+Inf"} 0' in text
        assert "lat_seconds_sum 0" in text
        assert "lat_seconds_count 0" in text


class TestQueries:
    def test_total_sums_over_label_filter(self, registry):
        registry.family("counter", "x.total", (), {"kind": "as", "code": "OK"})[()].inc(2)
        registry.family("counter", "x.total", (), {"kind": "as", "code": "ERR"})[()].inc(1)
        registry.family("counter", "x.total", (), {"kind": "tgs", "code": "OK"})[()].inc(5)
        assert registry.total("x.total") == 8
        assert registry.total("x.total", kind="as") == 3
        assert registry.total("x.total", kind="as", code="OK") == 2
        assert registry.total("x.total", kind="nope") == 0

    def test_get_by_labels(self, registry):
        counter = registry.family("counter", "x.total", (), {"kind": "as"})[()]
        assert registry.get("x.total", {"kind": "as"}) is counter
        assert registry.get("x.total", {"kind": "tgs"}) is None

    def test_reset_zeroes_but_keeps_schema(self, registry):
        registry.family("counter", "net.total", ())[()].inc(5)
        registry.family("counter", "kdc.total", ())[()].inc(3)
        registry.reset(prefix="net.")
        assert registry.total("net.total") == 0
        assert registry.total("kdc.total") == 3
        # Schema survives: the instrument is still registered.
        assert registry.get("net.total") is not None


class TestSnapshot:
    def _drive(self, registry, clock):
        registry.family("counter", "a.total", (), {"k": "1"})[()].inc(3)
        registry.family("gauge", "b.size", ())[()].set(2)
        hist = registry.family("histogram", "c.seconds", (), buckets=(0.5, 1.0))[()]
        clock.advance(0.75)
        hist.observe(clock.now())
        return registry.snapshot(now=clock.now())

    def test_snapshot_deterministic_under_sim_clock(self):
        """Two identical runs over seeded simulated time yield
        byte-identical snapshots."""
        import json

        snaps = [
            self._drive(MetricsRegistry(), SimClock(start=10.0))
            for _ in range(2)
        ]
        assert json.dumps(snaps[0], sort_keys=True) == json.dumps(
            snaps[1], sort_keys=True
        )
        assert snaps[0]["clock"] == 10.75

    def test_snapshot_orders_instruments(self):
        registry = MetricsRegistry()
        # Register out of order; snapshot must sort.
        registry.family("counter", "z.total", ())[()].inc()
        registry.family("counter", "a.total", (), {"k": "2"})[()].inc()
        registry.family("counter", "a.total", (), {"k": "1"})[()].inc()
        names = [
            (e["name"], tuple(sorted(e["labels"].items())))
            for e in registry.snapshot()["counters"]
        ]
        assert names == sorted(names)

    def test_snapshot_histogram_shape(self):
        registry = MetricsRegistry()
        hist = registry.family("histogram", "h", (), buckets=(1.0, 2.0))[()]
        hist.observe(0.5)
        hist.observe(5.0)
        (entry,) = registry.snapshot()["histograms"]
        assert entry["buckets"] == [[1.0, 1], [2.0, 1]]
        assert entry["count"] == 2
        assert entry["sum"] == 5.5


class TestPrometheusRender:
    def test_counter_and_gauge_lines(self, registry):
        registry.family("counter", "kdc.requests_total", (), {"kind": "as"})[()].inc(4)
        registry.family("gauge", "replay.entries", (), {"server": "kerberos"})[()].set(2)
        text = render_prometheus(registry)
        assert "# TYPE kdc_requests_total counter" in text
        assert 'kdc_requests_total{kind="as"} 4' in text
        assert 'replay_entries{server="kerberos"} 2' in text

    def test_histogram_expansion(self, registry):
        hist = registry.family("histogram", "h.seconds", (), buckets=(0.5, 1.0))[()]
        hist.observe(0.25)
        hist.observe(7.0)
        text = render_prometheus(registry)
        assert 'h_seconds_bucket{le="0.5"} 1' in text
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 2' in text
        assert "h_seconds_sum 7.25" in text
        assert "h_seconds_count 2" in text

    def test_type_header_once_per_name(self, registry):
        registry.family("counter", "x.total", (), {"k": "1"})[()]
        registry.family("counter", "x.total", (), {"k": "2"})[()]
        text = render_prometheus(registry)
        assert text.count("# TYPE x_total counter") == 1

    def test_label_values_escaped_per_spec(self, registry):
        """Quotes, backslashes, and newlines in label values render as
        ``\\"``, ``\\\\``, and ``\\n`` — not raw, which would corrupt
        the exposition format."""
        registry.family("counter", "x.total", (), {"detail": 'say "hi"\\now\nplease'})[()].inc()
        text = render_prometheus(registry)
        assert (
            'x_total{detail="say \\"hi\\"\\\\now\\nplease"} 1' in text
        )
        assert "\nplease" not in text  # no raw newline inside a label

    def test_histogram_series_order_is_spec_deterministic(self, registry):
        """Per series: buckets ascending, then +Inf, then _sum, then
        _count — the order scrapers expect, stable across runs."""
        hist = registry.family("histogram", "h.seconds", (), buckets=(0.5, 1.0))[()]
        hist.observe(0.25)
        text = render_prometheus(registry)
        positions = [
            text.index('h_seconds_bucket{le="0.5"}'),
            text.index('h_seconds_bucket{le="1"}'),
            text.index('h_seconds_bucket{le="+Inf"}'),
            text.index("h_seconds_sum"),
            text.index("h_seconds_count"),
        ]
        assert positions == sorted(positions)
