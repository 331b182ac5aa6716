"""Replay cache tests (paper Section 4.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReplayCache
from repro.core.replay import CLOCK_SKEW


class TestBasics:
    def test_fresh_entry_accepted(self):
        cache = ReplayCache()
        assert cache.check_and_store("jis", 1, 100.0, now=100.0)

    def test_exact_replay_rejected(self):
        cache = ReplayCache()
        cache.check_and_store("jis", 1, 100.0, now=100.0)
        assert not cache.check_and_store("jis", 1, 100.0, now=101.0)

    def test_different_timestamp_accepted(self):
        cache = ReplayCache()
        cache.check_and_store("jis", 1, 100.0, now=100.0)
        assert cache.check_and_store("jis", 1, 101.0, now=101.0)

    def test_different_client_accepted(self):
        cache = ReplayCache()
        cache.check_and_store("jis", 1, 100.0, now=100.0)
        assert cache.check_and_store("bcn", 1, 100.0, now=100.0)

    def test_different_address_accepted(self):
        cache = ReplayCache()
        cache.check_and_store("jis", 1, 100.0, now=100.0)
        assert cache.check_and_store("jis", 2, 100.0, now=100.0)

    def test_default_window_is_clock_skew(self):
        assert ReplayCache().window == CLOCK_SKEW

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ReplayCache(window=0)


class TestPurging:
    def test_old_entries_forgotten(self):
        """Entries older than the window are useless (their timestamps
        would be rejected anyway) and must be dropped to bound memory."""
        cache = ReplayCache(window=300.0)
        cache.check_and_store("jis", 1, 100.0, now=100.0)
        cache.check_and_store("jis", 1, 101.0, now=101.0)
        assert len(cache) == 2
        # Each authenticator is kept once: the order holds the entries themselves.
        assert {id(entry) for entry in cache._order} == {id(entry) for entry in cache._seen}
        cache.purge(now=402.0)
        assert len(cache) == 0
        assert not cache._seen and not cache._order

    def test_purge_keeps_entries_in_window(self):
        cache = ReplayCache(window=300.0)
        cache.check_and_store("jis", 1, 100.0, now=100.0)
        cache.check_and_store("jis", 1, 350.0, now=350.0)
        cache.purge(now=401.0)
        assert len(cache) == 1
        assert cache.seen_before("jis", 1, 350.0)

    def test_remember_purges_as_side_effect(self):
        cache = ReplayCache(window=10.0)
        for t in range(100):
            cache.check_and_store("jis", 1, float(t), now=float(t))
        assert len(cache) <= 12  # bounded by window, not by history

    def test_memory_bounded_under_load(self):
        cache = ReplayCache(window=300.0)
        # 10k requests spread over an hour: only the last 5 minutes remain.
        for i in range(10_000):
            t = i * 0.36
            cache.check_and_store(f"user{i % 50}", i % 7, t, now=t)
        assert len(cache) <= 300.0 / 0.36 + 2

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["jis", "bcn"]),
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0, max_value=1000),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=25)
    def test_no_false_rejections(self, events):
        """Distinct (client, addr, ts) triples are always accepted."""
        cache = ReplayCache(window=1e9)
        seen = set()
        now = 0.0
        for client, addr, ts in events:
            fresh = cache.check_and_store(client, addr, ts, now=now)
            assert fresh == ((client, addr, ts) not in seen)
            seen.add((client, addr, ts))
