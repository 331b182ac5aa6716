"""The unified Service API: one lifecycle for every network daemon.

Before this module, each daemon (KDC, kdbm, kpropd, NFS/mountd, the
registration and application servers) invented its own binding pattern —
five ad-hoc variations of ``host.bind(port, handler)`` in a constructor,
with no way to detach, restart, or enumerate what a host runs.  The
event-driven runtime needs exactly those notions: a crashed host must
drop its services' volatile state (inbound queues), and a restarted one
must let them rebuild.

:class:`Service` is the one interface:

* :meth:`Service.ports` declares the port→handler map (a daemon may
  serve several ports — rlogind also answers the legacy rshd port);
* :meth:`attach` binds every declared port on a host and registers the
  service for lifecycle fan-out; :meth:`detach` unbinds and unregisters;
* two lifecycle hooks — :meth:`on_attach` and :meth:`on_detach` — run
  at attach/detach, and the network drives the same two on a crash
  (``Network.set_down`` → ``on_detach``) and a restart
  (``Network.set_up`` → ``on_attach``).

Construction is always detached: build the daemon, then
``attach(host)`` (the call chains, so
``KerberosServer(db, keygen=kg).attach(host)`` reads naturally).  The
constructor-``host`` auto-attach shim that eased the original migration
was kept exactly one release and is gone.

Direct ``Host.bind`` calls outside :mod:`repro.netsim` and this module
are banned by the AST lint suite (tests and attacker tooling excepted —
an adversary does not use polite interfaces).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional


class ServiceError(Exception):
    """Misuse of the service lifecycle (double attach, detach while
    detached, port collision at attach time)."""


class Service:
    """Base class for every network daemon in the realm.

    Subclasses implement :meth:`ports` and may override the lifecycle
    hooks.  The base class owns the attach/detach mechanics, the
    ``host`` attribute (None while detached) and — from attach on — the
    ``metrics`` / ``tracer`` / ``audit`` handles of the network the host
    is plugged into, so no daemon wires its own.
    """

    def __init__(self) -> None:
        self.host = None

    # -- declaration --------------------------------------------------------

    def ports(self) -> Dict[int, Callable]:
        """The port→handler map this service binds.  Called at attach
        time, so handlers may be bound methods."""
        raise NotImplementedError

    @property
    def attached(self) -> bool:
        return self.host is not None

    # -- lifecycle ----------------------------------------------------------

    def attach(self, host) -> "Service":
        """Bind every declared port on ``host`` and register for
        lifecycle fan-out.  Returns self, so construction chains:
        ``KerberosServer(db, keygen=kg).attach(host)``."""
        if self.host is not None:
            raise ServiceError(
                f"{type(self).__name__} is already attached to "
                f"{self.host.name}"
            )
        port_map = self.ports()
        bound = []
        try:
            for port, handler in port_map.items():
                host.bind(port, handler)
                bound.append(port)
        except ValueError as exc:
            for port in bound:
                host.unbind(port)
            raise ServiceError(str(exc)) from exc
        self.host = host
        self.metrics = host.network.metrics
        self.tracer = host.network.tracer
        self.audit = host.network.audit
        host.register_service(self)
        self.on_attach()
        return self

    def detach(self) -> None:
        """Unbind every declared port and deregister."""
        if self.host is None:
            raise ServiceError(f"{type(self).__name__} is not attached")
        self.on_detach()
        host, self.host = self.host, None
        for port in self.ports():
            host.unbind(port)
        host.unregister_service(self)

    # -- hooks (no-ops by default) -------------------------------------------

    def on_attach(self) -> None:
        """An incarnation begins: after every port is bound, and again
        each time the host comes back up.  ``host`` and the three
        observability handles are set.  Volatile state (queues,
        sessions, kernel maps) is born here; what is on disk (database,
        srvtab, configuration, the replay cache) is kept."""

    def on_detach(self) -> None:
        """An incarnation ends: before ports are unbound, and each time
        the host goes down (host is still set).  Releases what
        :meth:`on_attach` built; may run twice (a crash, then a detach
        while down)."""


__all__ = ["Service", "ServiceError"]
