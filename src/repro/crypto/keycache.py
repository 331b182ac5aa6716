"""Process-wide key caching, and the one switch for every key cache.

Profiling the Figure 5-13 flows shows that a large share of crypto time
is spent not in DES rounds but in *re-deriving keys*.  A scheduled key
is kept by whatever holds it: the master key's unseal cache
(:mod:`repro.database.masterkey`) for every principal key the database
unseals, a srvtab for a service's keys, and a credential, ticket or
session for its session key.  What stays here is one bounded LRU:

* :func:`memoized_string_to_key` — (password, salt) → derived key
  (reached via :func:`repro.crypto.string2key.string_to_key`).

It is content addressed, so it stays process-wide: what it holds never
depends on which realm or host asked (``realm.add_user`` fills it for a
later client ``kinit``).  Its hit/miss traffic is a process-wide tally
(:func:`stats`; a lookup while caching is off counts as a miss) that no
registry mirrors.

:func:`caches_disabled` turns the whole layer off — the database-side
caches and the KDC's own consult :func:`caching_enabled` too — so tests
and Exp RP's pre-check can assert that replies are bit-identical with
and without it.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

from repro.crypto.des import DesKey

#: Distinct (password, salt) derivations kept.
S2K_CACHE_SIZE = 1024


class _LruCache:
    """A small OrderedDict-backed LRU (move-to-end on hit)."""

    __slots__ = ("maxsize", "_data")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        data = self._data
        value = data.get(key)
        if value is not None:
            data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        data = self._data
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def discard(self, key, value) -> None:
        """Drop ``key`` if it still holds ``value`` (LRU order untouched)."""
        if self._data.get(key) is value:
            del self._data[key]

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


_s2k_cache = _LruCache(S2K_CACHE_SIZE)
_enabled = True
_hits = 0
_misses = 0
_skeleton_hits = 0
_skeleton_misses = 0


def caching_enabled() -> bool:
    """True unless inside :func:`caches_disabled` — consulted by the
    database/masterkey caches so one switch covers every layer."""
    return _enabled


@contextmanager
def caches_disabled():
    """Temporarily bypass every key cache (and empty the memo): inside,
    every request re-derives its keys and seals whole frames."""
    global _enabled
    previous = _enabled
    _enabled = False
    clear()
    try:
        yield
    finally:
        _enabled = previous


def clear() -> None:
    """Drop all cached derivations (stats kept)."""
    _s2k_cache.clear()


def stats() -> Dict[str, int]:
    """Process-wide cache traffic: ``{"hit": ..., "miss": ...}``."""
    return {"hit": _hits, "miss": _misses}


def reset_stats() -> None:
    global _hits, _misses, _skeleton_hits, _skeleton_misses
    _hits = 0
    _misses = 0
    _skeleton_hits = 0
    _skeleton_misses = 0


def _record(hit: bool) -> None:
    global _hits, _misses
    if hit:
        _hits += 1
    else:
        _misses += 1


def memoized_string_to_key(
    password: str, salt: str, derive: Callable[[str, str], DesKey]
) -> DesKey:
    """Cache wrapper for the string-to-key one-way function.

    ``derive`` is the real derivation; it runs only on a miss.  The KDC
    never sees passwords, so this cache serves the *client* side —
    kinit-then-preauth flows that would otherwise derive the same key
    two or three times per login.
    """
    if not _enabled:
        _record(False)
        return derive(password, salt)
    cache_key = (password, salt)
    cached = _s2k_cache.get(cache_key)
    if cached is not None:
        _record(True)
        return cached
    derived = derive(password, salt)
    _s2k_cache.put(cache_key, derived)
    _record(False)
    return derived


# --------------------------------------------------------------------------
# Sealed-ticket skeletons.
#
# A skeleton is the resumable PCBC state of a sealed ticket's fixed
# prefix — the seal header plus the whole blocks of the server field,
# the same for every ticket one key seals at one length (see
# repro.core.ticket.seal_tickets_cached), so an entry is one per
# (service key, ticket length).  Each KDC keeps its own skeleton cache
# (an _LruCache built when it attaches, passed as None while caching is
# off); only the hit/miss tally below is process-wide.  An entry is a
# two-item list ``[cipher_prefix, chain]``; a miss reserves it *empty*
# and the batch run that seals the ticket fills it in place afterwards,
# so until then (the rest of that batch) finders seal the whole frame
# themselves.  Entries are *content addressed*: the cache key is the
# sealing key's bytes plus the literal prefix plaintext (and total
# length), so a rotated service key or a renamed service can never be
# served a stale prefix — it simply misses, and its dead entry ages out
# of the LRU.
# --------------------------------------------------------------------------


def skeleton_entry(cache: Optional[_LruCache], key: Tuple) -> list:
    """``cache``'s skeleton entry for a sealing-key/prefix pair, reserved
    empty on a miss; with no cache, a fresh empty one (uncounted).
    Hits and misses feed ``skeleton_stats``."""
    global _skeleton_hits, _skeleton_misses
    if cache is None:
        return []
    entry = cache.get(key)
    if entry is None:
        _skeleton_misses += 1
        entry = []
        cache.put(key, entry)
    else:
        _skeleton_hits += 1
    return entry


def skeleton_stats() -> Dict[str, int]:
    """Every KDC's skeleton traffic: ``{"hit": ..., "miss": ...}``."""
    return {"hit": _skeleton_hits, "miss": _skeleton_misses}
