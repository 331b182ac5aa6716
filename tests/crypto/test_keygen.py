"""Session key generation (paper Sections 2.1 and 6.3)."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    DesKey,
    KeyGenerator,
    check_parity,
    des_simd,
    is_weak_key,
    keygen,
)
from repro.crypto.des import WEAK_KEYS, fix_parity
from repro.crypto.modes import WIDE_MIN_BLOCKS
from tests.crypto.kernel_helpers import ASTRIDE, spy_on_key_matrices


class TestKeyGenerator:
    def test_deterministic_from_seed(self):
        a = KeyGenerator(seed=b"athena")
        b = KeyGenerator(seed=b"athena")
        assert [a.session_key() for _ in range(5)] == [
            b.session_key() for _ in range(5)
        ]

    def test_different_seeds_diverge(self):
        assert (
            KeyGenerator(seed=b"athena").session_key()
            != KeyGenerator(seed=b"lcs").session_key()
        )

    def test_stream_has_no_short_cycles(self):
        gen = KeyGenerator(seed=b"cycle-check")
        keys = [gen.session_key().key_bytes for _ in range(200)]
        assert len(set(keys)) == 200

    @given(st.binary(min_size=1, max_size=32))
    @settings(max_examples=30)
    def test_keys_always_valid(self, seed):
        gen = KeyGenerator(seed=seed)
        for _ in range(5):
            k = gen.session_key()
            assert isinstance(k, DesKey)
            assert check_parity(k.key_bytes)
            assert not is_weak_key(k.key_bytes)

    def test_random_bytes_length(self):
        gen = KeyGenerator(seed=b"rb")
        for n in (0, 1, 7, 8, 9, 100):
            assert len(gen.random_bytes(n)) == n

    def test_random_bytes_negative_rejected(self):
        with pytest.raises(ValueError):
            KeyGenerator(seed=b"x").random_bytes(-1)

    def test_random_bytes_advance_state(self):
        gen = KeyGenerator(seed=b"rb2")
        assert gen.random_bytes(16) != gen.random_bytes(16)

    def test_random_u32_range(self):
        gen = KeyGenerator(seed=b"u32")
        values = [gen.random_u32() for _ in range(50)]
        assert all(0 <= v < 2**32 for v in values)
        assert len(set(values)) > 45  # essentially all distinct

    def test_fork_is_independent(self):
        base = KeyGenerator(seed=b"realm")
        kdc1 = base.fork(b"slave-1")
        kdc2 = base.fork(b"slave-2")
        assert kdc1.session_key() != kdc2.session_key()

    def test_fork_deterministic(self):
        a = KeyGenerator(seed=b"realm").fork(b"slave-1")
        b = KeyGenerator(seed=b"realm").fork(b"slave-1")
        assert a.session_key() == b.session_key()

    def test_seed_type_checked(self):
        with pytest.raises(TypeError):
            KeyGenerator(seed="string seed")

    def test_default_seed_works(self):
        assert isinstance(KeyGenerator().session_key(), DesKey)

    def test_output_bits_balanced(self):
        """Crude sanity check of the DRBG: ones density near 50%."""
        gen = KeyGenerator(seed=b"balance")
        data = gen.random_bytes(4096)
        ones = sum(bin(b).count("1") for b in data)
        assert 0.45 < ones / (8 * len(data)) < 0.55


# --------------------------------------------------------------------------
# ISSUE 19: one block source, drawn a run at a time.
#
# ``session_keys_bytes(n)`` reads the stream ``n`` single draws read — the
# KDC's replies, and every realm fixture's registration keys, hang on it.
# The yardstick below is the generator as it stood before the batch draw,
# one ``encrypt_block`` per counter, kept here verbatim.
# --------------------------------------------------------------------------

def one_block_at_a_time(seed, n, weak=WEAK_KEYS, counter=0):
    """(``n`` keys, the counter afterwards), drawn the pre-batch way."""
    key = keygen._seed_to_key(seed)
    drawn = []
    while len(drawn) < n:
        block = key.encrypt_block(counter.to_bytes(8, "big"))
        counter += 1
        candidate = fix_parity(block)
        if candidate not in weak:
            drawn.append(candidate)
    return drawn, counter


@st.composite
def split_draws(draw):
    """A total and one way of cutting it into calls (zeros allowed)."""
    calls = draw(st.lists(st.integers(0, 70), min_size=1, max_size=5))
    return sum(calls), calls


class TestBatchDraw:
    @given(st.binary(min_size=1, max_size=16), split_draws())
    @settings(max_examples=40, deadline=None)
    def test_any_split_reads_the_sequential_stream(self, seed, split):
        total, calls = split
        gen = KeyGenerator(seed=seed)
        drawn = [key for n in calls for key in gen.session_keys_bytes(n)]
        expected, counter = one_block_at_a_time(seed, total)
        assert drawn == expected
        assert gen._counter == counter
        assert all(type(key) is bytes and len(key) == 8 for key in drawn)

    @pytest.mark.parametrize("n", [1, 5, 40, 64])
    @pytest.mark.parametrize("weak_at", [0, 3, 39, 63])
    def test_a_weak_candidate_mid_run_costs_one_more_block(
        self, n, weak_at, monkeypatch
    ):
        """Plant the ``weak_at``-th block of a known stream among the
        weak keys: ``n`` keys still come back, one more counter is
        consumed, and every later key shifts by one — exactly as when
        drawing one at a time."""
        seed = b"planted-weak"
        stream, _ = one_block_at_a_time(seed, 80)
        planted = WEAK_KEYS | {stream[weak_at]}
        monkeypatch.setattr(keygen, "WEAK_KEYS", planted)
        gen = KeyGenerator(seed=seed)
        drawn = gen.session_keys_bytes(n)
        expected, counter = one_block_at_a_time(seed, n, weak=planted)
        assert drawn == expected and len(drawn) == n
        assert gen._counter == counter == n + (weak_at < n)
        if weak_at < n:
            assert drawn[weak_at:] == stream[weak_at + 1 : n + 1]

    def test_two_weak_candidates_in_a_row(self, monkeypatch):
        """The refill run can itself hold a weak candidate."""
        seed = b"planted-weak"
        stream, _ = one_block_at_a_time(seed, 50)
        planted = WEAK_KEYS | {stream[39], stream[40], stream[41]}
        monkeypatch.setattr(keygen, "WEAK_KEYS", planted)
        gen = KeyGenerator(seed=seed)
        assert gen.session_keys_bytes(40) == stream[:39] + [stream[42]]
        assert gen._counter == 43

    @pytest.mark.parametrize("n", [*ASTRIDE, 128])
    def test_the_threshold_is_invisible(self, n, monkeypatch):
        """Keys either side of the wide kernel's threshold read the same;
        a draw below it still makes one pass of ``WIDE_MIN_BLOCKS``
        counters, the rest kept for later draws."""
        passes = spy_on_key_matrices(monkeypatch)
        gen = KeyGenerator(seed=b"threshold")
        expected, counter = one_block_at_a_time(b"threshold", n)
        assert gen.session_keys_bytes(n) == expected
        assert gen._counter == counter
        if des_simd.available():
            # One pass, one key column broadcast over the lanes.
            assert passes == [(max(n, WIDE_MIN_BLOCKS), (16, 1))]

    @pytest.mark.parametrize("n", [1, 33, 128])
    def test_numpy_absent(self, n, monkeypatch):
        monkeypatch.setattr(des_simd, "_np", None)
        gen = KeyGenerator(seed=b"no-numpy")
        expected, counter = one_block_at_a_time(b"no-numpy", n)
        assert gen.session_keys_bytes(n) == expected
        assert gen._counter == counter

    def test_no_keys_no_blocks(self, monkeypatch):
        passes = _spy_on_passes(monkeypatch)
        gen = KeyGenerator(seed=b"idle")
        assert gen.session_keys_bytes(0) == [] and gen.random_bytes(0) == b""
        assert passes == [] and gen._counter == 0
        gen.random_u32()
        gen.random_bytes(0)
        gen.session_keys_bytes(0)
        assert passes == [WIDE_MIN_BLOCKS] and gen._counter == 1

    def test_every_draw_rides_the_one_source(self):
        """``session_key``, ``session_key_bytes``, ``random_bytes`` and
        a batch draw interleave on one counter."""
        seed = b"one-source"
        stream, _ = one_block_at_a_time(seed, 140)
        gen = KeyGenerator(seed=seed)
        assert gen.session_key().key_bytes == stream[0]
        assert gen.session_key_bytes() == stream[1]
        assert gen.session_keys_bytes(3) == stream[2:5]
        gen.random_bytes(9)  # two blocks, the second cut short
        assert gen._counter == 7
        assert gen.session_keys_bytes(130) == stream[7:137]

    @given(st.integers(0, 700))
    @settings(max_examples=25, deadline=None)
    def test_random_bytes_is_a_prefix_of_the_block_stream(self, n):
        gen = KeyGenerator(seed=b"bytes")
        key = keygen._seed_to_key(b"bytes")
        blocks = b"".join(
            key.encrypt_block(c.to_bytes(8, "big")) for c in range(-(-n // 8))
        )
        assert gen.random_bytes(n) == blocks[:n]
        assert gen._counter == -(-n // 8)

    def test_streams_are_the_ones_every_fixture_was_built_on(self):
        """Recorded at the parent commit: registration keys, hence every
        realm fixture and every pinned digest, depend on these bytes."""
        gen = KeyGenerator(seed=b"athena")
        assert [gen.session_key().key_bytes.hex() for _ in range(3)] == [
            "a82c3e492f80ba5e", "d57aa76e16c8d6ad", "cb46bfbc25a29eab",
        ]
        assert gen.random_bytes(20).hex() == (
            "68bd2ea5acc7568c1743afe8fe532d4b0a22026e"
        )
        assert gen.fork(b"slave-1").session_key().key_bytes.hex() == (
            "8ffdb3d392c28fc8"
        )
        assert gen.session_key_bytes().hex() == "2c91eabfe3a74562"
        assert gen._counter == 7
        assert KeyGenerator().session_key().key_bytes.hex() == "9bf77c9708d9ef46"


# --------------------------------------------------------------------------
# The stream drawn a pass ahead: a refill encrypts at least
# ``WIDE_MIN_BLOCKS`` counters, and later draws read what it left.
# --------------------------------------------------------------------------

class OneCounterAtATime:
    """The reference stream, one ``encrypt_block`` per counter, read in
    the generator's own terms."""

    def __init__(self, seed):
        self.seed, self.counter = seed, 0

    def session_keys_bytes(self, n):
        keys, self.counter = one_block_at_a_time(
            self.seed, n, counter=self.counter
        )
        return keys

    def random_bytes(self, n):
        key, first = keygen._seed_to_key(self.seed), self.counter
        self.counter += -(-n // 8)
        return b"".join(
            key.encrypt_block(c.to_bytes(8, "big"))
            for c in range(first, self.counter)
        )[:n]


#: A mix of draws; ``drop`` throws the blocks drawn ahead away.
DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("session_keys_bytes"), st.integers(0, 40)),
        st.tuples(st.just("random_bytes"), st.integers(0, 90)),
        st.sampled_from([("session_key", 0), ("random_u32", 0), ("drop", 0)]),
    ),
    min_size=1, max_size=30,
)


def _draw(gen, ref, name, n):
    """The same draw from the generator and the reference."""
    if name == "session_keys_bytes":
        return gen.session_keys_bytes(n), ref.session_keys_bytes(n)
    if name == "random_bytes":
        return gen.random_bytes(n), ref.random_bytes(n)
    if name == "session_key":
        return gen.session_key().key_bytes, ref.session_keys_bytes(1)[0]
    if name == "random_u32":
        return gen.random_u32(), int.from_bytes(ref.random_bytes(4), "big")
    gen._ahead = b""
    return None, None


def _spy_on_passes(monkeypatch):
    """The block count of every pass the generator makes from here on."""
    passes = []
    real = keygen.ecb_encrypt
    monkeypatch.setattr(
        keygen, "ecb_encrypt",
        lambda key, data: passes.append(len(data) // 8) or real(key, data),
    )
    return passes


class TestDrawAhead:
    @given(st.binary(min_size=1, max_size=16), DRAWS, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_any_mix_of_draws_reads_the_one_counter_stream(
        self, seed, calls, numpy
    ):
        """Across refills, with numpy or without, and with the blocks
        drawn ahead thrown away anywhere: byte for byte the reference's
        reads, and ``_counter`` at the blocks issued."""
        gen, ref = KeyGenerator(seed=seed), OneCounterAtATime(seed)
        np = des_simd._np if numpy else None
        with mock.patch.object(des_simd, "_np", np):
            for name, n in calls:
                got, want = _draw(gen, ref, name, n)
                assert got == want, (name, n)
                assert gen._counter == ref.counter

    def test_a_refill_is_one_pass_of_at_least_the_threshold(self, monkeypatch):
        passes = _spy_on_passes(monkeypatch)
        gen = KeyGenerator(seed=b"ahead")
        gen.random_u32()
        gen.random_bytes(8 * (WIDE_MIN_BLOCKS - 1))  # the rest of that pass
        assert passes == [WIDE_MIN_BLOCKS]
        gen.session_key()
        gen.random_bytes(8 * WIDE_MIN_BLOCKS)  # one block short: a pass
        gen.session_keys_bytes(3 * WIDE_MIN_BLOCKS)
        w = WIDE_MIN_BLOCKS
        assert passes == [w, w, w, 3 * w - (w - 1)]
        assert gen._counter == sum(passes) and gen._ahead == b""
