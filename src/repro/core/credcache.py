"""The credential cache — the workstation's ticket file.

Paper, Section 4.2: *"The ticket and the session key, along with some of
the other information, are stored for future use, and the user's
password and DES key are erased from memory."*  Section 6.1: tickets
"are automatically destroyed when a user logs out" (kdestroy), and
"a user executing the klist command ... may be surprised at all the
tickets which have silently been obtained on her/his behalf".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crypto import DesKey
from repro.principal import Principal, tgs_principal


@dataclass
class Credential:
    """One cached (service, ticket, session key) entry."""

    service: Principal
    ticket: bytes
    session_key: DesKey
    issue_time: float
    life: float
    kvno: int

    @property
    def expires(self) -> float:
        return self.issue_time + self.life

    def expired(self, now: float) -> bool:
        return now >= self.expires

    def remaining(self, now: float) -> float:
        return max(0.0, self.expires - now)


class CredentialCache:
    """Per-login-session ticket storage, keyed by service principal.

    With a :class:`repro.obs.MetricsRegistry` attached, lookups count
    into ``credcache.lookups_total{result="hit"|"miss"}`` — the series
    behind the Section 9 claim that ticket reuse keeps KDC traffic well
    below one request per service use.
    """

    def __init__(
        self, owner: Optional[Principal] = None, metrics=None
    ) -> None:
        self.owner = owner
        self._creds: Dict[str, Credential] = {}
        if metrics is not None:
            lookups = metrics.family("counter", "credcache.lookups_total", ("result",))
            self._hit, self._miss = lookups["hit"], lookups["miss"]
        else:
            self._hit = self._miss = None

    def store(self, cred: Credential) -> None:
        self._creds[str(cred.service)] = cred

    def get(self, service: Principal, now: Optional[float] = None) -> Optional[Credential]:
        """Fetch a usable credential; expired entries are not returned
        (the paper's 6.1 scenario: an expired ticket makes the
        application fail, prompting a fresh kinit)."""
        cred = self._creds.get(str(service))
        if cred is not None and now is not None and cred.expired(now):
            cred = None
        if self._hit is not None:
            (self._miss if cred is None else self._hit).inc()
        return cred

    def tgt(self, realm: str, now: Optional[float] = None) -> Optional[Credential]:
        """The ticket-granting ticket for ``realm``, if still valid."""
        return self.get(tgs_principal(realm), now=now)

    def remote_tgt(
        self, local_realm: str, remote_realm: str, now: Optional[float] = None
    ) -> Optional[Credential]:
        """A cross-realm TGT (Section 7.2) issued by the local realm."""
        return self.get(tgs_principal(local_realm, remote_realm), now=now)

    def list(self) -> List[Credential]:
        """Everything in the cache — the klist view."""
        return sorted(self._creds.values(), key=lambda c: str(c.service))

    def destroy(self) -> int:
        """kdestroy: wipe every credential; returns how many were held."""
        count = len(self._creds)
        self._creds.clear()
        self.owner = None
        return count

    def purge_expired(self, now: float) -> int:
        """Drop expired entries; returns how many were removed."""
        dead = [k for k, c in self._creds.items() if c.expired(now)]
        for k in dead:
            del self._creds[k]
        return len(dead)

    def __len__(self) -> int:
        return len(self._creds)

    def __contains__(self, service: Principal) -> bool:
        return str(service) in self._creds
