"""The kernel-resident credential mapping (the appendix's core design).

*"The basic idea is to have the NFS server map credentials received from
client workstations, to a valid (and possibly different) credential on
the server system.  This mapping is performed in the server's kernel on
each NFS transaction and is setup at 'mount' time ...

The basic mapping function maps the tuple
⟨CLIENT-IP-ADDRESS, UID-ON-CLIENT⟩ to a valid NFS credential on the
server system. ... Our new system call is used to add and delete entries
from the kernel resident map.  It also provides the ability to flush all
entries that map to a specific UID on the server system, or flush all
entries from a given CLIENT-IP-ADDRESS."*

:class:`CredentialMap` is that kernel table, and its methods are that
system call.  The two configurations for unmapped requests are modelled
by :class:`UnmappedPolicy`:

*"In our friendly configuration we default the unmappable requests into
the credentials for the user 'nobody' ...  Unfriendly servers return an
NFS access error when no valid mapping can be found."*

Entries may carry an expiry (the Kerberos ticket lifetime that
authorised them): a mapping outliving its ticket would be an
authentication that never ends, so :meth:`resolve` reports such entries
as ``"expired"`` and purges them — the client must re-run the mount
handshake.  The table is volatile kernel state: :meth:`clear` models a
server crash losing the whole map.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Optional, Tuple

from repro.apps.nfs.fs import NfsCredential
from repro.netsim import IPAddress
from repro.obs import MetricsRegistry


class UnmappedPolicy(enum.Enum):
    FRIENDLY = "friendly"       # unmapped -> nobody
    UNFRIENDLY = "unfriendly"   # unmapped -> access error


class CredentialMap:
    """⟨CLIENT-IP-ADDRESS, UID-ON-CLIENT⟩ → server credential.

    Lookups count into ``credmap.lookups_total{result="hit"|"miss"|
    "expired"}`` — the per-transaction cost of the appendix's shipped
    design.  Without a registry (standalone use in tests) a private one
    is created, keeping the counters the single source of truth either
    way.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        self._map: Dict[Tuple[IPAddress, int], NfsCredential] = {}
        self._expiry: Dict[Tuple[IPAddress, int], float] = {}
        registry = metrics if metrics is not None else MetricsRegistry()
        lookups = registry.family("counter", "credmap.lookups_total", ("result",), labels)
        self._hit, self._miss, self._expired = (
            lookups["hit"], lookups["miss"], lookups["expired"]
        )

    @property
    def lookups(self) -> int:
        """Total per-transaction lookups, whatever their result."""
        return int(
            self._hit.value + self._miss.value + self._expired.value
        )

    # -- the new system call's operations -------------------------------------

    def add(
        self,
        client_addr,
        uid_on_client: int,
        server_cred: NfsCredential,
        expires: Optional[float] = None,
    ) -> None:
        """Install a mapping (done by mountd after Kerberos succeeds).
        ``expires`` bounds its life to the authorising ticket's."""
        key = (IPAddress(client_addr), int(uid_on_client))
        self._map[key] = server_cred
        if expires is None:
            self._expiry.pop(key, None)
        else:
            self._expiry[key] = float(expires)

    def delete(self, client_addr, uid_on_client: int) -> bool:
        """Remove one mapping (unmount time)."""
        key = (IPAddress(client_addr), int(uid_on_client))
        self._expiry.pop(key, None)
        return self._map.pop(key, None) is not None

    def flush_uid(self, server_uid: int) -> int:
        """Flush all entries that map *to* a given server UID (log-out
        time cleanup); returns how many were removed."""
        doomed = [k for k, v in self._map.items() if v.uid == server_uid]
        for key in doomed:
            del self._map[key]
            self._expiry.pop(key, None)
        return len(doomed)

    def flush_address(self, client_addr) -> int:
        """Flush all entries from a given CLIENT-IP-ADDRESS (e.g. when a
        workstation is re-purposed); returns how many were removed."""
        addr = IPAddress(client_addr)
        doomed = [k for k in self._map if k[0] == addr]
        for key in doomed:
            del self._map[key]
            self._expiry.pop(key, None)
        return len(doomed)

    def clear(self) -> int:
        """Drop every entry — the kernel map is volatile state, and this
        is a crash losing it; returns how many entries died."""
        count = len(self._map)
        self._map.clear()
        self._expiry.clear()
        return count

    # -- the per-transaction lookup ----------------------------------------------

    def resolve(
        self, client_addr, uid_on_client: int, now: Optional[float] = None
    ) -> Tuple[Optional[NfsCredential], str]:
        """The hot path with its verdict: ``(credential, status)`` where
        status is ``"hit"``, ``"miss"``, or ``"expired"``.  An expired
        entry (its authorising ticket's lifetime is up) is purged and
        never served — the client must re-mount.  Note: per the
        appendix, "all information in the client-generated credential
        except the UID-ON-CLIENT is discarded" — the GIDs the client
        claims are never consulted."""
        key = (IPAddress(client_addr), int(uid_on_client))
        cred = self._map.get(key)
        if cred is None:
            self._miss.inc()
            return None, "miss"
        expires = self._expiry.get(key)
        if expires is not None and now is not None and now >= expires:
            del self._map[key]
            del self._expiry[key]
            self._expired.inc()
            return None, "expired"
        self._hit.inc()
        return cred, "hit"

    def lookup(
        self, client_addr, uid_on_client: int, now: Optional[float] = None
    ) -> Optional[NfsCredential]:
        """The classic system-call view of :meth:`resolve`."""
        cred, _status = self.resolve(client_addr, uid_on_client, now=now)
        return cred

    # -- inspection (conformance tests assert full table state) -----------------

    def entries(self) -> Dict[Tuple[str, int], NfsCredential]:
        """A snapshot of the whole table, keyed by (address-string, uid)."""
        return {
            (str(addr), uid): cred
            for (addr, uid), cred in self._map.items()
        }

    def expiry_of(self, client_addr, uid_on_client: int) -> Optional[float]:
        return self._expiry.get((IPAddress(client_addr), int(uid_on_client)))

    def __len__(self) -> int:
        return len(self._map)
