"""Master database key tests (paper Section 5.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import DesKey, KeyGenerator, des_simd, keycache
from repro.database import MasterKey
from repro.database.masterkey import UNSEAL_CACHE_SIZE, MasterKeyError
from tests.crypto.kernel_helpers import spy_on_key_matrices


@pytest.fixture
def master():
    return MasterKey.from_password("the-master-password")


@pytest.fixture
def keygen():
    return KeyGenerator(seed=b"mk-tests")


class TestSealing:
    def test_round_trip(self, master, keygen):
        key = keygen.session_key()
        assert master.unseal_key(master.seal_key(key)) == key

    def test_sealed_form_hides_key(self, master, keygen):
        key = keygen.session_key()
        assert key.key_bytes not in master.seal_key(key)

    def test_wrong_master_cannot_unseal(self, master, keygen):
        sealed = master.seal_key(keygen.session_key())
        other = MasterKey.from_password("different")
        with pytest.raises(MasterKeyError):
            other.unseal_key(sealed)

    def test_corrupted_sealed_key_rejected(self, master, keygen):
        sealed = bytearray(master.seal_key(keygen.session_key()))
        sealed[4] ^= 0xFF
        with pytest.raises(MasterKeyError):
            master.unseal_key(bytes(sealed))

    def test_deterministic_derivation(self):
        assert MasterKey.from_password("pw") == MasterKey.from_password("pw")
        assert MasterKey.from_password("pw") != MasterKey.from_password("pw2")


class TestUnsealKeys:
    """``unseal_keys`` is the one master-key unseal: a batch of blobs,
    position for position, in one pass of the cipher."""

    @pytest.fixture(autouse=True)
    def fresh_key_cache(self):
        keycache.clear()
        yield
        keycache.clear()

    def sealed(self, master, keygen, count):
        keys = [keygen.session_key() for _ in range(count)]
        return keys, [master.seal_key(key) for key in keys]

    @pytest.mark.parametrize("count", [0, 1, 10, 11, 40])
    def test_position_for_position(self, master, keygen, count):
        """10 three-block blobs stay below the wide kernel's threshold,
        11 cross it; the answer is the same list either way."""
        keys, blobs = self.sealed(master, keygen, count)
        assert master.unseal_keys(blobs) == keys
        assert master.unseal_keys(blobs[::-1]) == keys[::-1]  # now cached

    def test_duplicates_are_unsealed_once(self, master, keygen, monkeypatch):
        from repro.database import masterkey

        keys, blobs = self.sealed(master, keygen, 3)
        runs = []
        real = masterkey.unseal_many
        monkeypatch.setattr(
            masterkey, "unseal_many",
            lambda items: runs.append([blob for _k, blob in items]) or real(items),
        )
        order = [2, 0, 2, 1, 0, 2]
        cold = []
        got = master.unseal_keys([blobs[k] for k in order], cold.append)
        assert got == [keys[k] for k in order]
        # One cipher call over the distinct blobs, in first-use order;
        # each reported where it was first needed.
        assert runs == [[blobs[2], blobs[0], blobs[1]]]
        assert cold == [0, 1, 3]
        # Every duplicate slot holds the same scheduled key object.
        assert got[0] is got[2] is got[5]

    def test_a_hit_between_two_misses(self, master, keygen, monkeypatch):
        from repro.database import masterkey

        keys, blobs = self.sealed(master, keygen, 3)
        warm = master.unseal_key(blobs[1])
        runs = []
        real = masterkey.unseal_many
        monkeypatch.setattr(
            masterkey, "unseal_many",
            lambda items: runs.append(len(items)) or real(items),
        )
        cold = []
        got = master.unseal_keys(blobs, cold.append)
        assert got == keys and got[1] is warm
        assert runs == [2] and cold == [0, 2]
        # All three are cached now: no cipher call, nothing cold.
        assert master.unseal_keys(blobs, cold.append) == keys
        assert runs == [2] and cold == [0, 2]

    def test_more_distinct_blobs_than_the_cache_holds(self, master, keygen):
        count = UNSEAL_CACHE_SIZE + 40
        keys, blobs = self.sealed(master, keygen, count)
        assert master.unseal_keys(blobs) == keys
        assert len(master._unseal_cache) == UNSEAL_CACHE_SIZE
        # The oldest 40 were evicted, in first-use order, and only they
        # are cold on a second look.
        cold = []
        assert master.unseal_keys(blobs[40:], cold.append) == keys[40:]
        assert cold == []
        master.unseal_keys(blobs[:40], cold.append)
        assert cold == list(range(40))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_the_cache_sees_one_unseal_at_a_time(self, data):
        """Cut a stream of lookups into calls any way: what each lookup
        finds cached, and the cache's final LRU order — hence what the
        next batch evicts — are those of one ``unseal_key`` per lookup.
        (Holds while one call has no more distinct blobs than the cache
        has slots: a KDC batch has at most 256 against 1,024.)"""
        keycache.clear()
        size = data.draw(st.integers(2, 6))
        calls = data.draw(st.lists(
            st.lists(st.integers(0, 9), max_size=12).filter(
                lambda call: len(set(call)) <= size
            ),
            min_size=1, max_size=6,
        ))
        gen = KeyGenerator(seed=b"lru-order")
        alone, batched = (MasterKey.from_password("m") for _ in range(2))
        keys = [gen.session_key() for _ in range(10)]
        blobs = [alone.seal_key(key) for key in keys]
        alone._unseal_cache = keycache._LruCache(size)
        batched._unseal_cache = keycache._LruCache(size)
        cold_alone, cold_batched, start = [], [], 0
        for call in calls:
            for offset, k in enumerate(call):
                alone.unseal_keys(
                    [blobs[k]], lambda _p, at=start + offset: cold_alone.append(at)
                )
            got = batched.unseal_keys(
                [blobs[k] for k in call],
                lambda position, base=start: cold_batched.append(base + position),
            )
            assert got == [keys[k] for k in call]
            start += len(call)
            assert list(batched._unseal_cache._data) == list(
                alone._unseal_cache._data
            )
        assert cold_batched == cold_alone
        assert all(
            isinstance(key, DesKey)
            for key in batched._unseal_cache._data.values()
        )

    def test_a_bad_blob_is_a_value_in_its_slots(self, master, keygen):
        keys, blobs = self.sealed(master, keygen, 12)
        flipped = bytearray(blobs[5])
        flipped[9] ^= 0x10
        blobs[5] = blobs[8] = bytes(flipped)
        cold = []
        got = master.unseal_keys(blobs + [b"short"], cold.append)
        assert [k for k in range(13) if isinstance(got[k], MasterKeyError)] == [
            5, 8, 12,
        ]
        assert got[5] is got[8]
        assert "cannot unseal principal key" in str(got[5])
        assert [got[k] for k in range(12) if k not in (5, 8)] == [
            keys[k] for k in range(12) if k not in (5, 8)
        ]
        # A failure is never cached and never reported as scheduled.
        assert 5 not in cold and 12 not in cold and len(cold) == 10
        with pytest.raises(MasterKeyError, match="cannot unseal"):
            master.unseal_key(blobs[5])

    def test_no_reservation_outlives_a_call(self, master, keygen):
        """A cold blob's cache slot is reserved before the pass; neither
        a blob that fails nor a call that raises may leave one behind."""
        from repro.crypto import seal

        keys, blobs = self.sealed(master, keygen, 3)
        not_a_key = seal(master.des_key, b"12345")  # unseals; no DES key
        flipped = bytes([blobs[1][0] ^ 1]) + blobs[1][1:]
        with pytest.raises(ValueError, match="8 bytes"):
            master.unseal_keys([blobs[0], flipped, not_a_key, blobs[2]])
        cached = master._unseal_cache._data
        assert list(cached) == [blobs[0]]  # scheduled before the raise
        assert isinstance(cached[blobs[0]], DesKey)
        assert master.unseal_keys(blobs) == keys

    def test_caches_disabled_is_honoured(self, master, keygen):
        keys, blobs = self.sealed(master, keygen, 12)
        with keycache.caches_disabled():
            assert master.unseal_keys(blobs + blobs[:2]) == keys + keys[:2]
            assert len(master._unseal_cache) == 0
            cold = []
            master.unseal_keys(blobs[:3], cold.append)
            assert cold == [0, 1, 2]  # nothing was remembered
        assert master.unseal_keys(blobs) == keys
        assert len(master._unseal_cache) == 12

    def test_schedules_counts_the_key_schedules_made(self, master, keygen):
        """Once per cold blob with the caches on, once per position with
        them off, and never for a blob that will not unseal."""
        keys, blobs = self.sealed(master, keygen, 3)
        assert master.schedules == 0
        master.unseal_keys([blobs[0]])
        master.unseal_keys([blobs[0], blobs[0]])
        assert master.schedules == 1
        with keycache.caches_disabled():
            master.unseal_keys([blobs[1], blobs[1], blobs[0]])
            assert master.schedules == 4
        flipped = bytes([blobs[2][0] ^ 1]) + blobs[2][1:]
        assert isinstance(master.unseal_keys([flipped])[0], MasterKeyError)
        assert master.schedules == 4

    def test_one_pass_one_key_column(self, master, keygen, monkeypatch):
        """Every blob is sealed under the one master key: a cold batch
        is one wide pass whose key matrix is a single column."""
        if not des_simd.available():
            pytest.skip("numpy not available; wide path disabled")
        keys, blobs = self.sealed(master, keygen, 20)
        passes = spy_on_key_matrices(monkeypatch)
        assert master.unseal_keys(blobs) == keys
        assert passes == [(60, (16, 1))]

    def test_accepts_views(self, master, keygen):
        keys, blobs = self.sealed(master, keygen, 2)
        views = [memoryview(blobs[0]), bytearray(blobs[1])]
        assert master.unseal_keys(views) == keys
        assert master.unseal_key(memoryview(blobs[0])) is master.unseal_key(blobs[0])


class TestChecksum:
    def test_verify_genuine(self, master):
        data = b"the database dump"
        assert master.verify_checksum(data, master.checksum(data))

    def test_reject_tampered(self, master):
        data = b"the database dump"
        mac = master.checksum(data)
        assert not master.verify_checksum(b"the database dUmp", mac)

    def test_reject_wrong_key(self, master):
        data = b"dump"
        other = MasterKey.from_password("not-the-master")
        assert not other.verify_checksum(data, master.checksum(data))


class TestStash:
    def test_stash_round_trip(self, master, tmp_path):
        path = str(tmp_path / ".k")
        master.stash(path)
        assert MasterKey.load_stash(path) == master

    def test_bad_stash_rejected(self, tmp_path):
        path = tmp_path / ".k"
        path.write_bytes(b"not a stash file at all")
        with pytest.raises(MasterKeyError):
            MasterKey.load_stash(str(path))

    def test_truncated_stash_rejected(self, master, tmp_path):
        path = tmp_path / ".k"
        master.stash(str(path))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(MasterKeyError):
            MasterKey.load_stash(str(path))


class TestHygiene:
    def test_type_check(self):
        with pytest.raises(TypeError):
            MasterKey(b"raw bytes")

    def test_repr_hides_key(self, master):
        assert "sealed" in repr(master)
        assert master.des_key.key_bytes.hex() not in repr(master)

    def test_hashable(self, master):
        assert len({master, MasterKey.from_password("the-master-password")}) == 1

    def test_not_equal_to_other_types(self, master):
        assert master != "a string"
