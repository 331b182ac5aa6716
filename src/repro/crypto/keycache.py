"""Process-wide key-schedule caching.

Profiling the Figure 5-13 flows shows that a large share of crypto time
is spent not in DES rounds but in *re-deriving key schedules*: every
``Ticket.key`` access, every principal key unsealed from the database,
and every ``string_to_key`` call used to rebuild the sixteen round
subkeys from the same 8 bytes.  This module gives the hot paths two
bounded LRU caches:

* :func:`des_key_from_bytes` — 8-byte key material → scheduled
  :class:`~repro.crypto.des.DesKey` (reached via ``DesKey.from_bytes``);
* :func:`memoized_string_to_key` — (password, salt) → derived key
  (reached via :func:`repro.crypto.string2key.string_to_key`).

``DesKey`` instances are immutable after construction, so sharing one
scheduled key between callers is safe.

Hit/miss traffic is counted process-wide (:func:`stats`) and can also be
mirrored into any :class:`repro.obs.MetricsRegistry` as
``crypto.keyschedule_total{result="hit"|"miss"}`` via
:func:`attach_metrics` — :class:`repro.realm.Realm` attaches its
network's registry automatically.

:func:`caches_disabled` turns the whole layer off — the database-side
caches consult :func:`caching_enabled` too — so tests and Exp RP's
pre-check can assert that replies are bit-identical with and without it.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.des import DesKey

#: Distinct (key bytes, allow_weak) schedules kept; at Athena scale the
#: working set is principals + live session keys, well under this.
KEY_CACHE_SIZE = 4096
#: Distinct (password, salt) derivations kept.
S2K_CACHE_SIZE = 1024
#: Distinct sealed-ticket skeletons kept: one per (service key, ticket
#: length) the KDC seals under — a few dozen at Athena scale.
SKELETON_CACHE_SIZE = 2048


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


_key_cache = _LruCache(KEY_CACHE_SIZE)
_s2k_cache = _LruCache(S2K_CACHE_SIZE)
_skeleton_cache = _LruCache(SKELETON_CACHE_SIZE)
_enabled = True
_hits = 0
_misses = 0
_skeleton_hits = 0
_skeleton_misses = 0

#: Live metric sinks: (registry weakref, hit counter, miss counter).
_sinks: List[Tuple[weakref.ref, object, object]] = []


def caching_enabled() -> bool:
    """True unless inside :func:`caches_disabled` — consulted by the
    database/masterkey caches so one switch covers every layer."""
    return _enabled


@contextmanager
def caches_disabled():
    """Temporarily bypass (and empty) every key-schedule cache: inside,
    every request re-derives its schedules and seals whole frames."""
    global _enabled
    previous = _enabled
    _enabled = False
    clear()
    try:
        yield
    finally:
        _enabled = previous


def clear() -> None:
    """Drop all cached schedules and skeletons (stats and sinks kept)."""
    _key_cache.clear()
    _s2k_cache.clear()
    _skeleton_cache.clear()


def stats() -> Dict[str, int]:
    """Process-wide cache traffic: ``{"hit": ..., "miss": ...}``."""
    return {"hit": _hits, "miss": _misses}


def reset_stats() -> None:
    global _hits, _misses, _skeleton_hits, _skeleton_misses
    _hits = 0
    _misses = 0
    _skeleton_hits = 0
    _skeleton_misses = 0


def attach_metrics(metrics, labels: Optional[dict] = None) -> None:
    """Mirror future hit/miss events into ``metrics`` as
    ``crypto.keyschedule_total{result}``.  Attaching the same registry
    twice is a no-op; dead registries are pruned on the next attach."""
    _sinks[:] = [s for s in _sinks if s[0]() is not None]
    for ref, _, _ in _sinks:
        if ref() is metrics:
            return
    base = dict(labels or {})
    hit = metrics.counter(
        "crypto.keyschedule_total", {**base, "result": "hit"}
    )
    miss = metrics.counter(
        "crypto.keyschedule_total", {**base, "result": "miss"}
    )
    _sinks.append((weakref.ref(metrics), hit, miss))


def _record(hit: bool) -> None:
    global _hits, _misses
    if hit:
        _hits += 1
    else:
        _misses += 1
    for ref, hit_counter, miss_counter in _sinks:
        if ref() is not None:
            (hit_counter if hit else miss_counter).inc()


def des_key_from_bytes(key: bytes, allow_weak: bool = False) -> DesKey:
    """Schedule-cached equivalent of ``DesKey(key, allow_weak)``."""
    if not _enabled:
        return DesKey(key, allow_weak)
    cache_key = (bytes(key), allow_weak)
    cached = _key_cache.get(cache_key)
    if cached is not None:
        _record(True)
        return cached
    scheduled = DesKey(cache_key[0], allow_weak)
    _key_cache.put(cache_key, scheduled)
    _record(False)
    return scheduled


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
# (service key, ticket length).  An entry is a two-item list
# ``[cipher_prefix, chain]``; a miss reserves it *empty* and the batch
# run that seals the ticket fills it in place afterwards, so until then
# (the rest of that batch) finders seal the whole frame themselves.
# Entries are *content addressed*: the cache key is the sealing key's
# bytes plus the literal prefix plaintext (and total length), so a
# rotated service key or a renamed service can never be served a stale
# prefix — it simply misses, and its dead entry ages out of the LRU.
#
# ``caches_disabled()`` covers this layer too: while disabled,
# ``skeleton_get`` always misses and ``skeleton_put`` drops the entry,
# so every ticket is sealed whole.
# --------------------------------------------------------------------------


def skeleton_get(key: Tuple):
    """Cached (cipher prefix, chain) for a sealing-key/prefix pair, or
    None.  Hits/misses feed ``skeleton_stats``."""
    global _skeleton_hits, _skeleton_misses
    if not _enabled:
        return None
    state = _skeleton_cache.get(key)
    if state is None:
        _skeleton_misses += 1
    else:
        _skeleton_hits += 1
    return state


def skeleton_put(key: Tuple, state) -> None:
    if _enabled:
        _skeleton_cache.put(key, state)


def skeleton_stats() -> Dict[str, int]:
    """Skeleton cache traffic: ``{"hit": ..., "miss": ..., "size": ...}``."""
    return {
        "hit": _skeleton_hits,
        "miss": _skeleton_misses,
        "size": len(_skeleton_cache),
    }
