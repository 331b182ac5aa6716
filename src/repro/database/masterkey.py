"""The master database key.

Paper, Section 5.3: *"All passwords in the Kerberos database are
encrypted in the master database key.  Therefore, the information passed
from master to slave over the network is not useful to an eavesdropper."*
The same key authenticates database propagation: *"The checksum is
encrypted in the Kerberos master database key, which both the master and
slave Kerberos machines possess."*

The master key is derived from a password entered at database
initialization and may be *stashed* in a file on the (physically secure,
per Section 6.3) Kerberos machines so servers can restart unattended —
the historical ``.k`` file.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.crypto import (
    DesKey,
    IntegrityError,
    cbc_mac,
    keycache,
    seal,
    string_to_key,
    unseal_many,
    verify_cbc_mac,
)

#: Distinct sealed blobs each MasterKey remembers the unsealing of.
UNSEAL_CACHE_SIZE = 1024


class MasterKeyError(Exception):
    """Wrong master key, corrupt stash file, or failed verification."""


class MasterKey:
    """Wraps the realm's master DES key with its two duties:
    sealing principal keys at rest and authenticating database dumps.
    """

    def __init__(self, key: DesKey) -> None:
        if not isinstance(key, DesKey):
            raise TypeError(f"expected DesKey, got {type(key).__name__}")
        self._key = key
        # Content-addressed: the same sealed blob always unseals to the
        # same key under this master key, so entries never go stale —
        # a key change writes a *new* blob.
        self._unseal_cache = keycache._LruCache(UNSEAL_CACHE_SIZE)

    @classmethod
    def from_password(cls, password: str) -> "MasterKey":
        """Derive the master key exactly as a user key is derived."""
        return cls(string_to_key(password))

    # -- sealing principal keys ------------------------------------------

    def seal_key(self, principal_key: DesKey) -> bytes:
        """Encrypt a principal's key for storage in the database."""
        return seal(self._key, principal_key.key_bytes)

    def unseal_keys(
        self,
        blobs: Sequence[bytes],
        on_cold: Optional[Callable[[int], None]] = None,
    ) -> List[Union[DesKey, MasterKeyError]]:
        """Recover many principals' keys from their stored form, position
        for position — the one master-key unseal there is.

        Results are cached by sealed blob (the KDC unseals the same few
        principal keys for every ticket it issues); the cache honors the
        global :func:`repro.crypto.keycache.caches_disabled` switch.
        The distinct blobs the cache lacks take **one** ``unseal_many``
        under the master key (≥ 11 three-block blobs: one pass of the
        wide kernel) and are scheduled in first-use order,
        ``on_cold(position)`` being told where each was first needed.
        A cold blob's cache slot is reserved where it is first met — its
        list of positions stands in for the key until the pass is done —
        so the cache sees the get/put sequence of one unseal at a time:
        what a batch finds cached, and what it evicts, does not depend
        on how requests were cut into batches.  A blob that will not
        unseal yields its :class:`MasterKeyError` as a value in its
        slots — one corrupt row never poisons its batchmates.
        """
        caching = keycache.caching_enabled()
        cache = self._unseal_cache
        blobs = [bytes(blob) for blob in blobs]
        results: List[Union[DesKey, MasterKeyError, None]] = [None] * len(blobs)
        cold: Dict[bytes, List[int]] = {}
        for position, blob in enumerate(blobs):
            found = cache.get(blob) if caching else None
            if found is None:
                found = cold.setdefault(blob, [])
                if caching:
                    cache.put(blob, found)
            if type(found) is list:
                found.append(position)
            else:
                results[position] = found
        if not cold:  # the steady state of a single unseal_key
            return results
        try:
            unsealed = unseal_many([(self._key, blob) for blob in cold])
            for (blob, positions), raw in zip(cold.items(), unsealed):
                if isinstance(raw, IntegrityError):
                    key = MasterKeyError(f"cannot unseal principal key: {raw}")
                else:
                    key = DesKey.from_bytes(raw, allow_weak=True)
                    if caching:
                        cache.put(blob, key)
                    if on_cold is not None:
                        on_cold(positions[0])
                for position in positions:
                    results[position] = key
        finally:
            # No reservation outlives the call: not a failed blob's, and
            # none at all should anything above raise.
            for blob, positions in cold.items():
                cache.discard(blob, positions)
        return results

    def unseal_key(self, sealed: bytes) -> DesKey:
        """One-element :meth:`unseal_keys`; a failure is raised."""
        (key,) = self.unseal_keys([sealed])
        if isinstance(key, MasterKeyError):
            raise key
        return key

    # -- authenticating dumps (Figure 13) ---------------------------------

    def checksum(self, data: bytes) -> bytes:
        """The kprop checksum: a MAC keyed by the master key."""
        return cbc_mac(self._key, data)

    def verify_checksum(self, data: bytes, mac: bytes) -> bool:
        return verify_cbc_mac(self._key, data, mac)

    # -- stash file ----------------------------------------------------------

    def stash(self, path: str) -> None:
        """Write the key to a stash file (the historical ``.k`` file).

        The paper's operational answer to "where does the master key live
        while the server runs unattended" is the physical security of the
        Kerberos machines (Section 6.3); the stash file models that: it is
        plaintext on a host assumed physically secure.
        """
        with open(path, "wb") as f:
            f.write(b"KSTASH01" + self._key.key_bytes)

    @classmethod
    def load_stash(cls, path: str) -> "MasterKey":
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) != 16 or raw[:8] != b"KSTASH01":
            raise MasterKeyError(f"{path} is not a master key stash file")
        return cls(DesKey(raw[8:], allow_weak=True))

    # -- comparison (never expose bytes casually) -----------------------------

    @property
    def des_key(self) -> DesKey:
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MasterKey):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(("MasterKey", self._key))

    def __repr__(self) -> str:
        return "MasterKey(<sealed>)"
