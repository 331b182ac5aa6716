"""Datagram network between simulated hosts.

The model matches what the 1988 implementation assumed of UDP/IP:

* unreliable, unauthenticated datagrams — anybody can read them (taps),
  modify or drop them (interceptors), or forge the source address
  (:meth:`Network.inject`), which is precisely the attacker the paper
  designs against;
* synchronous request/response on top (:meth:`Host.rpc`), standing in
  for the send-and-wait UDP exchanges of the real clients;
* hosts can be down (master failure in Figures 10/11), and each hop can
  cost simulated latency.

Delivery is **event-driven**: every datagram leg is an event on the
network's :class:`~repro.runtime.EventScheduler` (``net.runtime``), so
packets are genuinely *in flight* — a busy server can queue arrivals
(see :class:`DeferredReply`) while other traffic proceeds, which is what
makes the Section 9 busy-hour concurrency modelable at all.  The
synchronous :meth:`Host.rpc` API survives unchanged on top: it posts the
request and *pumps* the scheduler until its reply resolves, so callers
(and nested callers — a handler doing its own RPC) never notice the
machinery.  :meth:`Network.rpc_async` exposes the non-blocking form for
open-loop load generators.

Traffic statistics are kept per destination port so the benchmarks can
report message counts per service, e.g. KDC load at Athena scale.  They
live in the network's :class:`repro.obs.MetricsRegistry` (``net.metrics``,
the single source of truth for every instrumented layer) as
``net.datagrams_total{port}`` and ``net.bytes_total{port}``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.netsim.address import IPAddress
from repro.netsim.clock import HostClock, SimClock
from repro.netsim.faults import FaultPlane, Partition, Verdict
from repro.obs import AuditLog, MetricsRegistry, Tracer
from repro.obs.tracing import Span, TraceContext
from repro.runtime import EventScheduler


class NetworkError(Exception):
    """Base class for simulated network failures."""


class Unreachable(NetworkError):
    """The destination host is down, unknown, or the packet was lost."""


class HostDown(Unreachable):
    """The destination host itself is down — a crash, not a lossy wire.

    Subclassing :class:`Unreachable` keeps every existing retry/failover
    path working unchanged, while callers that care (scenario SLO
    verdicts, the burst driver) can tell "KDC dead" from "KDC slow"."""


class NoSuchService(NetworkError):
    """The destination host is up but nothing listens on the port."""


class Datagram:
    """One packet on the wire.  Attackers see exactly this — except
    ``trace``, which is **out-of-band simulation metadata**: the
    propagated :class:`repro.obs.TraceContext` of the sending span.  It
    is not wire bytes (payloads and the golden vectors are untouched),
    and it is not attacker-visible or forgeable — hand-crafted or
    replayed datagrams travel context-less, which is exactly how they
    show up in the trace tree: as orphans.

    Slotted by hand: datagrams are the highest-volume allocation in any
    simulation.
    """

    __slots__ = ("src", "src_port", "dst", "dst_port", "payload", "trace")

    def __init__(
        self,
        src: IPAddress,
        src_port: int,
        dst: IPAddress,
        dst_port: int,
        payload: bytes,
        trace: Optional[TraceContext] = None,
    ) -> None:
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.payload = payload
        self.trace = trace

    def reply_with(self, payload: bytes) -> "Datagram":
        """Build the response datagram travelling the reverse path (the
        reply leg stays in the request's trace)."""
        return Datagram(
            src=self.dst,
            src_port=self.dst_port,
            dst=self.src,
            dst_port=self.src_port,
            payload=payload,
            trace=self.trace,
        )

    def __eq__(self, other: object) -> bool:
        """Wire-field equality only: two datagrams carrying the same
        bytes over the same path are the same packet to any observer,
        whatever sim-side metadata rides along."""
        if not isinstance(other, Datagram):
            return NotImplemented
        return (
            self.src == other.src
            and self.src_port == other.src_port
            and self.dst == other.dst
            and self.dst_port == other.dst_port
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash(
            (self.src, self.src_port, self.dst, self.dst_port, self.payload)
        )

    def __repr__(self) -> str:
        return (
            f"Datagram({self.src}:{self.src_port} -> "
            f"{self.dst}:{self.dst_port}, {len(self.payload)}B)"
        )


class DeferredReply:
    """A handler's promise to answer later.

    A queued service loop (the KDC's worker pool) cannot answer at
    arrival time: the request sits in its inbound queue until a worker
    batch completes.  Such a handler returns a :class:`DeferredReply`
    instead of bytes; the network wires the reply leg to it, and the
    service calls :meth:`resolve` when the work finishes —
    ``resolve(None)`` means the reply was lost (queue dropped in a
    crash, say), which the sender experiences as a timeout.
    """

    __slots__ = ("_payload", "_resolved", "_sink")

    def __init__(self) -> None:
        self._payload: Optional[bytes] = None
        self._resolved = False
        self._sink: Optional[Callable[[Optional[bytes]], None]] = None

    @property
    def resolved(self) -> bool:
        return self._resolved

    def resolve(self, payload: Optional[bytes]) -> None:
        """Deliver the (possibly absent) reply; first call wins."""
        if self._resolved:
            return
        self._resolved = True
        self._payload = payload
        if self._sink is not None:
            self._sink(payload)

    def _bind(self, sink: Callable[[Optional[bytes]], None]) -> None:
        """Network-side: attach the reply leg (fires now if already
        resolved)."""
        self._sink = sink
        if self._resolved:
            sink(self._payload)


class PendingRpc:
    """The caller's view of one in-flight exchange.

    Resolved exactly once: with reply bytes, or with a transport error.
    ``one_way`` exchanges (:meth:`Host.send`, :meth:`Network.inject`)
    resolve at handler completion with the handler's raw return value
    and never schedule a reply leg.
    """

    __slots__ = ("reply", "error", "done", "one_way", "resolved_at")

    def __init__(self, one_way: bool = False) -> None:
        self.reply: Optional[bytes] = None
        self.error: Optional[NetworkError] = None
        self.done = False
        self.one_way = one_way
        self.resolved_at: Optional[float] = None

    def _resolve(self, payload: Optional[bytes], now: float) -> None:
        if self.done:
            return
        self.done = True
        self.reply = payload
        self.resolved_at = now

    def _fail(self, error: NetworkError, now: float) -> None:
        if self.done:
            return
        self.done = True
        self.error = error
        self.resolved_at = now


#: A bound service: takes the request datagram, returns reply bytes,
#: None (no reply), or a :class:`DeferredReply` (answer later).
Handler = Callable[[Datagram], object]
#: A passive tap: sees a copy of every datagram.
Tap = Callable[[Datagram], None]
#: An active interceptor: may rewrite or drop (return None) any datagram.
Interceptor = Callable[[Datagram], Optional[Datagram]]

#: Ephemeral source port used for client sides of RPCs.
EPHEMERAL_PORT = 0

#: Simulated seconds a synchronous caller pumps before giving up on a
#: reply that is never coming (e.g. a queued request lost in a crash).
RPC_TIMEOUT = 30.0


class Host:
    """A machine on the network: an address, a clock, and bound services."""

    def __init__(
        self,
        network: "Network",
        name: str,
        address: IPAddress,
        clock: HostClock,
    ) -> None:
        self.network = network
        self.name = name
        self.address = address
        self.clock = clock
        self.up = True
        self._services: Dict[int, Handler] = {}
        #: Attached :class:`repro.core.service.Service` instances, in
        #: attach order; crash/restart lifecycle hooks fan out to these.
        self.services: List[object] = []

    def bind(self, port: int, handler: Handler) -> None:
        """Start a service on ``port``.  One handler per port.

        This is the raw transport primitive.  Daemon code in
        ``src/repro`` goes through :class:`repro.core.service.Service`
        (lint-enforced); tests and attacker tooling may bind directly.
        """
        if port in self._services:
            raise ValueError(f"port {port} already bound on {self.name}")
        self._services[port] = handler

    def rebind(self, port: int, handler: Handler) -> Optional[Handler]:
        """Replace whatever listens on ``port`` (service restart, e.g. the
        Figure 10/11 failover drills).  Returns the displaced handler, or
        None if the port was free."""
        previous = self._services.get(port)
        self._services[port] = handler
        return previous

    def unbind(self, port: int) -> bool:
        """Stop the service on ``port``; True if a handler was removed."""
        return self._services.pop(port, None) is not None

    def handler_for(self, port: int) -> Optional[Handler]:
        return self._services.get(port)

    def register_service(self, service) -> None:
        """Track an attached Service for lifecycle fan-out."""
        if service not in self.services:
            self.services.append(service)

    def unregister_service(self, service) -> None:
        if service in self.services:
            self.services.remove(service)

    def rpc(self, dst, port: int, payload: bytes) -> bytes:
        """Send a request from this host and wait for the reply."""
        return self.network.rpc(self, dst, port, payload)

    def rpc_async(self, dst, port: int, payload: bytes) -> PendingRpc:
        """Post a request without waiting; resolve via the runtime."""
        return self.network.rpc_async(self, dst, port, payload)

    def send(self, dst, port: int, payload: bytes) -> None:
        """Fire-and-forget datagram (no reply expected)."""
        self.network.send(self, dst, port, payload)

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"Host({self.name!r}, {self.address}, {state})"


class Network:
    """The wire connecting every host, plus its attackers and its stats."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        latency: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.latency = float(latency)
        self._rng = random.Random(seed)
        self._hosts_by_name: Dict[str, Host] = {}
        self._hosts_by_addr: Dict[IPAddress, Host] = {}
        self._taps: List[Tap] = []
        self._interceptors: List[Interceptor] = []
        self._next_octet = 1
        #: The realm-wide observability planes: every instrumented layer
        #: (KDC, caches, propagation, NFS ...) records here.
        self.metrics = MetricsRegistry()
        #: Held per-leg ``net.*`` handles, by (series, label value); the
        #: registry is this network's for life.
        self._held: Dict[tuple, object] = {}
        self.tracer = Tracer(self.clock)
        self.tracer.metrics = self.metrics
        #: The append-only security-event log (auth failures, replays,
        #: tampered propagation ...); see :mod:`repro.obs.audit`.
        self.audit = AuditLog(self.clock, metrics=self.metrics)
        #: The discrete-event runtime every datagram leg is scheduled on.
        self.runtime = EventScheduler(self.clock, seed=seed)
        self.runtime.metrics = self.metrics
        #: How long synchronous RPC callers pump for a reply (sim secs).
        self.rpc_timeout = RPC_TIMEOUT
        #: The fault-injection plane (loss, duplication, reordering,
        #: jitter, partitions), sharing the network's seeded RNG so
        #: chaos runs are reproducible.
        self.faults = FaultPlane(self._rng, self.metrics)

    # -- topology -----------------------------------------------------------

    def add_host(
        self,
        name: str,
        address: Optional[str] = None,
        clock_skew: float = 0.0,
    ) -> Host:
        """Register a machine.  Addresses default to 18.72.0.x (MITnet)."""
        if name in self._hosts_by_name:
            raise ValueError(f"host name {name!r} already in use")
        if address is None:
            # Skip over any addresses claimed explicitly.
            while True:
                addr = IPAddress(
                    f"18.72.{self._next_octet // 256}.{self._next_octet % 256}"
                )
                self._next_octet += 1
                if addr not in self._hosts_by_addr:
                    break
        else:
            addr = IPAddress(address)
            if addr in self._hosts_by_addr:
                raise ValueError(f"address {addr} already in use")
        host = Host(self, name, addr, HostClock(self.clock, clock_skew))
        self._hosts_by_name[name] = host
        self._hosts_by_addr[addr] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self._hosts_by_name[name]
        except KeyError:
            raise KeyError(f"no host named {name!r}") from None

    def host_by_address(self, address) -> Host:
        addr = IPAddress(address)
        try:
            return self._hosts_by_addr[addr]
        except KeyError:
            raise KeyError(f"no host at {addr}") from None

    def hosts(self) -> List[Host]:
        return list(self._hosts_by_name.values())

    def set_down(self, name: str) -> None:
        """Take a machine off the network (paper: 'the master machine is
        down').  Attached services get their ``on_crash`` hook — volatile
        state (inbound queues) is lost exactly as in a real crash."""
        host = self.host(name)
        if not host.up:
            return
        host.up = False
        for service in list(host.services):
            service.on_crash()

    def set_up(self, name: str) -> None:
        host = self.host(name)
        if host.up:
            return
        host.up = True
        for service in list(host.services):
            service.on_restart()

    # -- fault-plane conveniences ---------------------------------------------

    def _resolve_addr(self, host_or_address) -> IPAddress:
        """A host name, Host, or address → its IPAddress."""
        if isinstance(host_or_address, Host):
            return host_or_address.address
        if isinstance(host_or_address, str) and host_or_address in self._hosts_by_name:
            return self._hosts_by_name[host_or_address].address
        return IPAddress(host_or_address)

    def partition(self, group_a, group_b=None) -> Partition:
        """Cut ``group_a`` (host names or addresses) off from ``group_b``
        — or, with ``group_b=None``, from every other host.  Returns the
        installed rule; pass it to :meth:`heal` (or call ``heal()`` with
        no argument to lift every partition)."""
        a = [self._resolve_addr(h) for h in group_a]
        b = (
            [self._resolve_addr(h) for h in group_b]
            if group_b is not None
            else None
        )
        return self.faults.add(Partition(a, b))

    def heal(self, rule: Optional[Partition] = None) -> None:
        """Lift one partition, or all of them."""
        if rule is not None:
            self.faults.remove(rule)
            return
        for installed in self.faults.rules("partition"):
            self.faults.remove(installed)

    def crash_host(self, name: str, downtime: Optional[float] = None) -> None:
        """Crash a machine (it drops off the network, losing in-flight
        requests).  With ``downtime`` given, a restart is scheduled on
        the simulated clock — the Figure 10/11 master-reboot drill."""
        self.set_down(name)
        self.metrics.counter("faults.injected_total", {"kind": "crash"}).inc()
        if downtime is not None:
            if downtime <= 0:
                raise ValueError(f"downtime must be positive, got {downtime}")
            self.clock.call_at(
                self.clock.now() + downtime, lambda: self.restart_host(name)
            )

    def restart_host(self, name: str) -> None:
        """Bring a crashed machine back (its bound services survive —
        daemons restart from init)."""
        self.set_up(name)
        self.metrics.counter("faults.injected_total", {"kind": "restart"}).inc()

    # -- attackers ------------------------------------------------------------

    def add_tap(self, tap: Tap) -> None:
        """Attach a passive eavesdropper; it sees every datagram."""
        self._taps.append(tap)

    def remove_tap(self, tap: Tap) -> None:
        self._taps.remove(tap)

    def add_interceptor(self, interceptor: Interceptor) -> None:
        """Attach an active attacker that may rewrite or drop datagrams."""
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        self._interceptors.remove(interceptor)

    # -- the caller-facing exchanges -------------------------------------------

    def rpc(
        self,
        src: Host,
        dst,
        port: int,
        payload: bytes,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Synchronous request/response between two hosts.

        Posts the request as a scheduled event and pumps the runtime
        until the reply (or a failure) resolves — so a nested RPC made
        from inside a handler simply pumps the same queue deeper."""
        pending = self.rpc_async(src, dst, port, payload)
        self._pump(pending, timeout)
        if pending.error is not None:
            raise pending.error
        return pending.reply

    def rpc_async(self, src: Host, dst, port: int, payload: bytes) -> PendingRpc:
        """Post a request without waiting.  The returned
        :class:`PendingRpc` resolves as the runtime executes; drive it
        with ``net.runtime.run_until_idle()`` or any synchronous call
        that pumps."""
        if not src.up:
            raise Unreachable(f"source host {src.name} is down")
        datagram = Datagram(
            src=src.address,
            src_port=EPHEMERAL_PORT,
            dst=IPAddress(dst),
            dst_port=port,
            payload=bytes(payload),
            trace=self.tracer.propagation_context(),
        )
        return self._post(datagram, one_way=False)

    def send(self, src: Host, dst, port: int, payload: bytes) -> None:
        """One-way datagram; silently lost on failure, like UDP.  Pumps
        until the delivery attempt completes so sender-visible side
        effects (the handler ran) are settled on return."""
        if not src.up:
            raise Unreachable(f"source host {src.name} is down")
        datagram = Datagram(
            src=src.address,
            src_port=EPHEMERAL_PORT,
            dst=IPAddress(dst),
            dst_port=port,
            payload=bytes(payload),
            trace=self.tracer.propagation_context(),
        )
        pending = self._post(datagram, one_way=True)
        self._pump(pending, None)
        # UDP: delivery failure is the sender's silence, not an error.

    def inject(self, datagram: Datagram) -> Optional[bytes]:
        """Deliver a hand-crafted datagram — source address forgery.

        This is the primitive behind the NFS appendix's observation that
        "this information could be forged": an attacker does not need a
        registered host to put packets on the wire.  Returns the
        handler's reply bytes (None if the packet was dropped in
        transit); raises on host-down / no-service, which the attacker
        observes as ICMP-ish silence anyway.
        """
        pending = self._post(datagram, one_way=True)
        self._pump(pending, None)
        if pending.error is not None:
            raise pending.error
        return pending.reply

    # -- event-driven delivery internals ----------------------------------------

    def _post(self, datagram: Datagram, one_way: bool) -> PendingRpc:
        """Schedule the request leg; the wire's propagation delay is the
        network latency (jitter rules add more at arrival)."""
        pending = PendingRpc(one_way=one_way)
        transit = self._transit_span(datagram, "request")
        self.runtime.after(
            self.latency,
            lambda: self._arrive(datagram, pending, transit),
            label="net.request",
        )
        return pending

    def _transit_span(
        self, datagram: Datagram, leg: str
    ) -> Optional[Span]:
        """A non-stack span covering one wire leg — the "net transit"
        slice of a traced exchange.  Only traced datagrams get one."""
        if not self.tracer.enabled or datagram.trace is None:
            return None
        return self.tracer.open_span(
            "net.transit",
            context=datagram.trace,
            leg=leg,
            dst=str(datagram.dst),
            port=datagram.dst_port,
        )

    def _end_transit(
        self, transit: Optional[Span], dropped: Optional[str] = None
    ) -> None:
        if transit is None:
            return
        if dropped is not None:
            transit.attrs["dropped"] = dropped
        self.tracer.close_span(transit)

    def _pump(self, pending: PendingRpc, timeout: Optional[float]) -> None:
        """Run runtime events until ``pending`` resolves.  Gives up —
        without consuming unrelated far-future events — once nothing is
        scheduled inside the timeout window."""
        deadline = self.clock.now() + (
            timeout if timeout is not None else self.rpc_timeout
        )
        while not pending.done:
            next_at = self.runtime.next_time()
            if next_at is None or next_at > deadline:
                pending._fail(
                    Unreachable(
                        "request timed out: no reply within "
                        f"{deadline - self.clock.now():.3f}s simulated"
                    ),
                    self.clock.now(),
                )
                break
            self.runtime.step()

    def _lost(self, datagram: Datagram, pending: PendingRpc) -> None:
        """A request leg that will never reach its handler."""
        if pending.one_way:
            pending._resolve(None, self.clock.now())
        else:
            pending._fail(
                Unreachable(
                    f"no reply from {datagram.dst}:{datagram.dst_port} "
                    "(request timed out)"
                ),
                self.clock.now(),
            )

    def _wire_leg(
        self,
        datagram: Datagram,
        to_service: bool,
        transit: Optional[Span],
        lost,
        landed,
    ) -> None:
        """One wire leg lands: fault verdict, taps, interceptors, the
        end of its transit span, traffic counters — then
        ``landed(datagram, verdict)``, after jitter's extra delay if
        any; or ``lost(datagram)`` if a fault or an interceptor dropped
        it on the way."""
        verdict = self.faults.inspect(datagram, to_service=to_service)
        dropped = verdict.drop_reason
        if dropped is None:
            for tap in self._taps:
                tap(datagram)
            for interceptor in self._interceptors:
                result = interceptor(datagram)
                if result is None:
                    dropped = "intercepted"
                    break
                datagram = result
        held = self._held
        if dropped is not None:
            (
                held.get(("net.drops_total", dropped))
                or self._counter("net.drops_total", "reason", dropped)
            ).inc()
            self._end_transit(transit, dropped=dropped)
            lost(datagram)
            return
        self._end_transit(transit)
        port = datagram.dst_port
        (
            held.get(("net.datagrams_total", port))
            or self._counter("net.datagrams_total", "port", port)
        ).inc()
        (
            held.get(("net.bytes_total", port))
            or self._counter("net.bytes_total", "port", port)
        ).inc(len(datagram.payload))
        if verdict.extra_delay:
            self.runtime.after(
                verdict.extra_delay,
                lambda: landed(datagram, verdict),
                label="net.jitter",
            )
        else:
            landed(datagram, verdict)

    def _counter(self, series: str, label: str, value):
        """``series{label=value}``, looked up by name once — the first
        time a leg needs it; earlier would put an empty series in every
        export — and held from then on: a lookup per leg was a dict, a
        sort and a tuple each."""
        handle = self._held[series, value] = self.metrics.counter(
            series, {label: value}
        )
        return handle

    def _arrive(
        self,
        datagram: Datagram,
        pending: PendingRpc,
        transit: Optional[Span] = None,
    ) -> None:
        """The request leg lands: on to the handler, or lost."""
        self._wire_leg(
            datagram, True, transit,
            lost=lambda request: self._lost(request, pending),
            landed=lambda request, verdict: self._dispatch(
                request, verdict, pending
            ),
        )

    def _dispatch(
        self, datagram: Datagram, verdict: Verdict, pending: PendingRpc
    ) -> None:
        """Hand the datagram to its bound service and route the reply."""
        if verdict.hold:
            # Parked in a reorder rule; it will arrive late (after a
            # successor) or never — to the sender, silence either way.
            self._lost(datagram, pending)
            return
        try:
            reply = self._handle_at_destination(datagram)
        except NetworkError as exc:
            pending._fail(exc, self.clock.now())
            return
        if verdict.duplicate:
            # The wire delivered a second copy; the handler runs again
            # and its reply goes nowhere (the caller keeps the first).
            self.metrics.counter(
                "net.duplicates_total", {"port": datagram.dst_port}
            ).inc()
            self._handle_discarding(datagram)
        for held in verdict.release:
            # A reordered predecessor finally arrives — long after its
            # sender stopped listening, so its reply is discarded too.
            self.metrics.counter(
                "net.reordered_total", {"port": held.dst_port}
            ).inc()
            self._handle_discarding(held)
        if isinstance(reply, DeferredReply):
            reply._bind(lambda payload: self._queue_reply(datagram, payload, pending))
        else:
            self._queue_reply(datagram, reply, pending)

    def _handle_discarding(self, datagram: Datagram) -> None:
        """Run the handler for a duplicate/late copy; discard its reply."""
        try:
            reply = self._handle_at_destination(datagram)
        except NetworkError:
            return
        if isinstance(reply, DeferredReply):
            reply._bind(lambda payload: None)

    def _handle_at_destination(self, datagram: Datagram):
        """Hand a datagram that survived transit to its bound service."""
        host = self._hosts_by_addr.get(datagram.dst)
        if host is None:
            raise Unreachable(f"host {datagram.dst} is unreachable")
        if not host.up:
            raise HostDown(f"host {datagram.dst} ({host.name}) is down")
        handler = host.handler_for(datagram.dst_port)
        if handler is None:
            raise NoSuchService(
                f"{host.name} ({datagram.dst}) has no service on port "
                f"{datagram.dst_port}"
            )
        return handler(datagram)

    def _queue_reply(
        self,
        request: Datagram,
        payload: Optional[bytes],
        pending: PendingRpc,
    ) -> None:
        """Route a handler's answer: schedule the reply leg for RPCs,
        resolve directly for one-way exchanges."""
        if pending.one_way:
            pending._resolve(payload, self.clock.now())
            return
        if payload is None:
            pending._fail(
                Unreachable(
                    f"no reply from {request.dst}:{request.dst_port} "
                    "(request timed out)"
                ),
                self.clock.now(),
            )
            return
        reply = request.reply_with(payload)
        transit = self._transit_span(reply, "reply")
        self.runtime.after(
            self.latency,
            lambda: self._arrive_reply(reply, request, pending, transit),
            label="net.reply",
        )

    def _arrive_reply(
        self,
        reply: Datagram,
        request: Datagram,
        pending: PendingRpc,
        transit: Optional[Span] = None,
    ) -> None:
        """The reply leg lands back at the caller, or is lost."""
        self._wire_leg(
            reply, False, transit,
            lost=lambda _reply: pending._fail(
                Unreachable(
                    f"reply from {request.dst}:{request.dst_port} was lost"
                ),
                self.clock.now(),
            ),
            landed=lambda reply, _verdict: pending._resolve(
                reply.payload, self.clock.now()
            ),
        )

    def reset_stats(self) -> None:
        """Zero the ``net.*`` traffic series (other metric families keep
        counting; they were never part of the traffic stats)."""
        self.metrics.reset(prefix="net.")
