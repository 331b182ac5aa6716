"""Composable fault injection for the simulated network.

Section 9 of the paper keeps a realm available through failures — slave
Kerberos machines answer ticket requests while the master is down — but
proving that requires a network that can actually *fail* in all the ways
UDP fails.  This module is that failure plane: a list of
:class:`FaultRule` objects consulted for every datagram in transit,
driven by the network's seeded RNG and the simulated clock so every
chaos run is reproducible bit-for-bit.

Rule kinds:

* :class:`Loss` — drop matching datagrams with a probability;
* :class:`Duplicate` — deliver a matching request to its handler twice
  (the classic duplicated-UDP-datagram the replay cache must absorb);
* :class:`Reorder` — hold a matching request back and deliver it *after*
  a later one (to the client the held request looks lost; the late
  delivery is what a stale, out-of-order datagram looks like to the
  server);
* :class:`Jitter` — add a random extra per-hop latency;
* :class:`Partition` — deterministically drop everything crossing
  between two host groups (the "master machine is down as far as you
  can tell" scenario of Figures 10/11).

Every injected fault increments ``faults.injected_total{kind=...}`` in
the network's metrics registry; the delivery-side effects additionally
show up as ``net.drops_total``, ``net.duplicates_total`` and
``net.reordered_total`` (see :mod:`repro.netsim.network`).

Host crash/restart lives on :class:`repro.netsim.network.Network`
(:meth:`~repro.netsim.network.Network.crash_host`) because it is a host
state change, not a per-datagram effect — but it records through the
same ``faults.injected_total`` series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional

from repro.netsim.address import IPAddress


class FaultError(Exception):
    """Misconfigured fault rule (bad rate, empty partition group)."""


def _check_rate(rate: float, what: str) -> float:
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:
        raise FaultError(f"{what} rate {rate} outside [0, 1]")
    return rate


@dataclass(frozen=True)
class Match:
    """Which datagrams a rule applies to; ``None`` criteria match any.

    ``port`` is the destination port (targets requests to a service);
    ``src_port`` targets the reply leg (a KDC reply has ``src_port``
    750).  ``src``/``dst`` are host addresses.
    """

    src: Optional[IPAddress] = None
    dst: Optional[IPAddress] = None
    port: Optional[int] = None
    src_port: Optional[int] = None

    @classmethod
    def build(
        cls,
        src=None,
        dst=None,
        port: Optional[int] = None,
        src_port: Optional[int] = None,
    ) -> "Match":
        return cls(
            src=IPAddress(src) if src is not None else None,
            dst=IPAddress(dst) if dst is not None else None,
            port=int(port) if port is not None else None,
            src_port=int(src_port) if src_port is not None else None,
        )

    def matches(self, datagram) -> bool:
        if self.src is not None and datagram.src != self.src:
            return False
        if self.dst is not None and datagram.dst != self.dst:
            return False
        if self.port is not None and datagram.dst_port != self.port:
            return False
        if self.src_port is not None and datagram.src_port != self.src_port:
            return False
        return True


class FaultRule:
    """Base class: the datagrams a rule acts on.  A rule acts while it
    is in the plane; remove it to pause it, add it again to resume."""

    kind = "fault"

    def __init__(self, match: Optional[Match] = None) -> None:
        self.match = match if match is not None else Match()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.match})"


class Loss(FaultRule):
    """Drop matching datagrams with probability ``rate``."""

    kind = "loss"

    def __init__(self, rate: float, match: Optional[Match] = None) -> None:
        super().__init__(match)
        self.rate = _check_rate(rate, "loss")


class Duplicate(FaultRule):
    """Deliver a matching request to its handler twice with probability
    ``rate``.  Only requests headed to a bound service are duplicated —
    a duplicated RPC reply is invisible (the client took the first copy),
    so duplicating it would only burn random draws."""

    kind = "duplicate"

    def __init__(self, rate: float, match: Optional[Match] = None) -> None:
        super().__init__(match)
        self.rate = _check_rate(rate, "duplicate")


class Reorder(FaultRule):
    """Hold a matching request back (probability ``rate``) and release it
    after the *next* matching request delivers — a one-slot reorder
    buffer.  The sender of the held request sees silence, exactly like a
    loss; the late delivery exercises the server's replay/staleness
    handling.  A held datagram with no successor is never delivered."""

    kind = "reorder"

    def __init__(self, rate: float, match: Optional[Match] = None) -> None:
        super().__init__(match)
        self.rate = _check_rate(rate, "reorder")
        self.held = None  # type: Optional[object]


class Jitter(FaultRule):
    """Add uniform extra latency in ``[low, high]`` simulated seconds to
    every matching hop.  Both bounds are finite: a NaN or infinite delay
    would put the datagram's arrival outside simulated time."""

    kind = "jitter"

    def __init__(
        self, low: float, high: float, match: Optional[Match] = None
    ) -> None:
        super().__init__(match)
        low, high = float(low), float(high)
        if not 0 <= low <= high < float("inf"):
            raise FaultError(f"jitter bounds [{low}, {high}] invalid")
        self.low = low
        self.high = high


class Partition(FaultRule):
    """Deterministically drop every datagram crossing between two
    address groups.  With ``group_b=None`` the rule cuts ``group_a``
    off from everyone else (the usual "master unreachable" drill)."""

    kind = "partition"

    def __init__(
        self,
        group_a: Iterable,
        group_b: Optional[Iterable] = None,
    ) -> None:
        super().__init__(Match())
        self.group_a: FrozenSet[IPAddress] = frozenset(
            IPAddress(a) for a in group_a
        )
        if not self.group_a:
            raise FaultError("partition group_a is empty")
        self.group_b: Optional[FrozenSet[IPAddress]] = (
            frozenset(IPAddress(b) for b in group_b)
            if group_b is not None
            else None
        )
        if self.group_b is not None and (self.group_a & self.group_b):
            raise FaultError(
                f"partition groups overlap: {self.group_a & self.group_b}"
            )

    def separates(self, datagram) -> bool:
        src_in_a = datagram.src in self.group_a
        dst_in_a = datagram.dst in self.group_a
        if self.group_b is None:
            return src_in_a != dst_in_a
        src_in_b = datagram.src in self.group_b
        dst_in_b = datagram.dst in self.group_b
        return (src_in_a and dst_in_b) or (src_in_b and dst_in_a)


class Verdict:
    """What the fault plane decided for one datagram in transit."""

    __slots__ = ("drop_reason", "duplicate", "hold", "extra_delay", "release")

    def __init__(self) -> None:
        self.drop_reason: Optional[str] = None
        self.duplicate = False
        self.hold = False
        self.extra_delay = 0.0
        #: Previously held datagrams to deliver (late) after this one.
        self.release: List[object] = []


class FaultPlane:
    """The ordered rule list one :class:`Network` consults per hop.

    Rules are evaluated in insertion order; random draws happen only for
    rules whose match applies, so adding a port-scoped rule never
    perturbs the RNG stream of traffic on other ports.
    """

    def __init__(self, rng, metrics) -> None:
        self._rng = rng
        self._injected = metrics.family("counter", "faults.injected_total", ("kind",))
        self._rules: List[FaultRule] = []

    # -- rule management ----------------------------------------------------

    def add(self, rule: FaultRule) -> FaultRule:
        self._rules.append(rule)
        return rule

    def remove(self, rule: FaultRule) -> None:
        self._rules.remove(rule)

    def clear(self) -> None:
        self._rules.clear()

    def rules(self, kind: Optional[str] = None) -> List[FaultRule]:
        return [r for r in self._rules if kind is None or r.kind == kind]

    def __len__(self) -> int:
        return len(self._rules)

    # -- the per-hop decision ------------------------------------------------

    def record(self, kind: str) -> None:
        """Count one injected fault: this plane's own, or a host crash
        or restart the network injects."""
        self._injected[kind].inc()

    def inspect(self, datagram, to_service: bool = True) -> Verdict:
        """Decide this hop's fate.  ``to_service`` is True for datagrams
        headed to a bound handler (requests); duplicate/reorder rules
        only act on those — a dropped or delayed *reply* is modelled by
        loss/jitter rules matching ``src_port``."""
        verdict = Verdict()
        for rule in self._rules:
            if not rule.match.matches(datagram):
                continue
            if isinstance(rule, Partition):
                if rule.separates(datagram):
                    verdict.drop_reason = "partition"
                    self.record("partition")
                    return verdict
            elif isinstance(rule, Loss):
                if rule.rate and self._rng.random() < rule.rate:
                    verdict.drop_reason = "loss"
                    self.record("loss")
                    return verdict
            elif isinstance(rule, Duplicate):
                if (
                    to_service
                    and not verdict.duplicate
                    and rule.rate
                    and self._rng.random() < rule.rate
                ):
                    verdict.duplicate = True
                    self.record("duplicate")
            elif isinstance(rule, Reorder):
                if not to_service:
                    continue
                if rule.held is not None:
                    verdict.release.append(rule.held)
                    rule.held = None
                elif (
                    not verdict.hold
                    and rule.rate
                    and self._rng.random() < rule.rate
                ):
                    verdict.hold = True
                    rule.held = datagram
                    self.record("reorder")
            elif isinstance(rule, Jitter):
                if rule.high > 0:
                    verdict.extra_delay += rule.low + self._rng.random() * (
                        rule.high - rule.low
                    )
                    self.record("jitter")
        return verdict


__all__ = [
    "Duplicate",
    "FaultError",
    "FaultPlane",
    "FaultRule",
    "Jitter",
    "Loss",
    "Match",
    "Partition",
    "Reorder",
    "Verdict",
]
