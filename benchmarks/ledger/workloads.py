"""The four workloads.

Each class builds its own world in ``__init__`` (that build is what
``setup_s`` times) and exposes the same four hooks to the runner:

* ``prepare(steps)`` — untimed: make the inputs of the coming steps;
* ``step(i)`` — **timed**: one unit of program work (``ops_per_step``
  operations);
* ``settle(i)`` — untimed, right after ``step(i)``: check the step's
  outputs and fold ``(op index, outcome)`` into the outcome digest;
* ``finish()`` — untimed, after the last step: whole-run checks.

An op whose step raised, or whose output check failed, is counted in
``failed``; nothing is retried.  Why each workload exists and how it is
sized is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, Dict, List, Tuple

from repro.apps.kerberized import KerberizedChannel, KerberizedServer, Protection
from repro.core import (
    ErrorCode,
    KerberosError,
    MessageType,
    RetryPolicy,
    StaticLocator,
    TgsRequest,
    AsRequest,
    build_authenticator,
    decode_message,
    encode_message,
    unseal_ticket,
)
from repro.crypto import string_to_key
from repro.encode import pack_frames
from repro.kdbm.client import KdbmClient
from repro.netsim import KERBEROS_PORT
from repro.principal import tgs_principal
from repro.runtime import WorkQueueConfig

from benchmarks.ledger.world import REALM_NAME, Scale, World, no_tick, rng_for

TICKET_LIFE = 3600.0
PAYLOAD_BYTES = 64


class Workload:
    """Shared bookkeeping: the failure count and the outcome digest."""

    name = ""
    #: Operations one timed step performs.
    ops_per_step = 1
    #: Sizing rate: a run of S seconds performs ``budget_ops_per_s * S``
    #: operations (rounded to whole steps), whatever the machine's speed,
    #: so counts repeat exactly for a seed.  Set near today's throughput.
    budget_ops_per_s = 1.0
    #: Steps run once at build time so lazy set-up is paid in ``setup_s``.
    warmup_steps = 2
    #: Client→KDC exchanges a fault-free step makes through the client
    #: library; attempts beyond this are retries.
    kdc_exchanges_per_step = 0
    #: Ports this workload's own application servers listen on.
    app_ports: Tuple[int, ...] = ()

    def __init__(self, seed: int, tick: Callable[[], None] = no_tick) -> None:
        self.seed = seed
        self.tick = tick
        self.failed = 0
        self._digest = hashlib.sha256()
        #: Per step index: what ``prepare`` planned, what ``step`` produced.
        self.plans: Dict[int, object] = {}
        self.results: Dict[int, object] = {}

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def record(self, op_index: int, outcome: str, ok: bool) -> None:
        self._digest.update(f"{op_index}:{outcome};".encode())
        if not ok:
            self.failed += 1

    def step_raised(self, step: int, exc: BaseException) -> None:
        """A step that raised fails every op it carried."""
        base = step * self.ops_per_step
        for k in range(self.ops_per_step):
            self.record(base + k, f"raised:{type(exc).__name__}", ok=False)
        self.discard(step)

    def discard(self, step: int) -> None:
        """Drop whatever ``step`` left behind for ``settle``."""
        self.plans.pop(step, None)
        self.results.pop(step, None)

    def warm_up(self) -> None:
        """Run a few steps outside the measurement (negative indices keep
        their draws apart from the run's), then forget their outcomes."""
        steps = range(-self.warmup_steps, 0)
        self.tick()
        self.prepare(steps)
        for i in steps:
            self.step(i)
            self.settle(i)
            self.tick()
        if self.failed:
            raise RuntimeError(f"{self.name}: warm-up op failed")
        self._digest = hashlib.sha256()

    def prepare(self, steps: range) -> None:
        pass

    def step(self, index: int) -> None:
        raise NotImplementedError

    def settle(self, index: int) -> None:
        pass

    def finish(self) -> None:
        pass


# -- login_session -----------------------------------------------------------


class EchoServer(KerberizedServer):
    """A Kerberized service that returns what it was sent and keeps, for
    the output check, who the library said was calling."""

    def __init__(self, service, srvtab, port: int) -> None:
        super().__init__(service, srvtab, port=port)
        self.calls: List[Tuple[str, bytes]] = []

    def handle(self, session, data: bytes) -> bytes:
        self.calls.append((session.client.name, data))
        return data


class LoginSession(Workload):
    """Figure 9 end to end, one message at a time, closed loop."""

    name = "login_session"
    ops_per_step = 1
    budget_ops_per_s = 100.0
    warmup_steps = 8
    kdc_exchanges_per_step = 3  # one AS, two TGS

    STATIONS = 32
    HOT_SERVICES = 8
    SERVICES_PER_LOGIN = 2
    CALLS_PER_SERVICE = 2
    FIRST_PORT = 2000
    app_ports = tuple(range(FIRST_PORT, FIRST_PORT + HOT_SERVICES))

    def __init__(
        self, seed: int, scale: Scale, tick: Callable[[], None] = no_tick
    ) -> None:
        super().__init__(seed, tick)
        self.world = world = World(seed, scale, tick=tick)
        self.stations = [world.station() for _ in range(self.STATIONS)]
        self.servers: List[EchoServer] = []
        for i, service in enumerate(world.services[: self.HOT_SERVICES]):
            host = world.net.add_host(f"server{i:02d}")
            server = EchoServer(
                service, world.realm.srvtab_for(service), self.FIRST_PORT + i
            )
            self.servers.append(server.attach(host))
        self._checked_calls = [0] * len(self.servers)
        self.warm_up()

    def prepare(self, steps: range) -> None:
        for index in steps:
            rng = rng_for(self.seed, self.name, index)
            user = rng.randrange(len(self.world.users))
            picks = rng.sample(range(len(self.servers)), self.SERVICES_PER_LOGIN)
            filler = rng.randbytes(PAYLOAD_BYTES - 12)
            self.plans[index] = (user, picks, filler)

    def step(self, index: int) -> None:
        user, picks, filler = self.plans.pop(index)
        name, password = self.world.users[user]
        client = self.stations[index % len(self.stations)].client
        client.kdestroy()
        client.kinit(name, password, life=TICKET_LIFE)
        sent = []
        for server_no in picks:
            server = self.servers[server_no]
            channel = KerberizedChannel(
                client,
                server.service,
                server.host.address,
                server.port,
                protection=Protection.PRIVATE,
                mutual=True,
            )
            for call_no in range(self.CALLS_PER_SERVICE):
                payload = struct.pack(">iii", index, call_no, user) + filler
                sent.append((server_no, payload, channel.call(payload)))
            channel.close()
        self.results[index] = sent

    def discard(self, step: int) -> None:
        super().discard(step)
        for no, server in enumerate(self.servers):
            self._checked_calls[no] = len(server.calls)

    def settle(self, index: int) -> None:
        sent = self.results.pop(index)
        ok = len(sent) == self.SERVICES_PER_LOGIN * self.CALLS_PER_SERVICE
        seen = []
        for server_no, payload, echoed in sent:
            ok = ok and echoed == payload
            # What the server library authenticated, in arrival order.
            log = self.servers[server_no].calls
            at = self._checked_calls[server_no]
            self._checked_calls[server_no] = at + 1
            if at >= len(log):
                ok = False
                continue
            who, data = log[at]
            user = struct.unpack(">iii", data[:12])[2]
            ok = ok and data == payload and who == self.world.users[user][0]
            seen.append(f"{who}@{server_no}")
        # The outcome names who each server saw, so it depends on the seed.
        outcome = "session:" + ",".join(seen)
        self.record(index, outcome if ok else f"mismatch:{outcome}", ok)

    def finish(self) -> None:
        for server in self.servers:
            if server.sessions or server.auth_failures:
                self.record(-1, "server-state", ok=False)


# -- kdc_batch ---------------------------------------------------------------


class KdcBatch(Workload):
    """The batch plane alone: framed buffers straight into the KDC."""

    name = "kdc_batch"
    ops_per_step = 128
    budget_ops_per_s = 1650.0
    warmup_steps = 2

    TGTS = 256
    AS_PER_BUFFER = 64
    #: One reply in this many is unsealed all the way to the ticket.
    UNSEAL_SAMPLE = 16
    #: Authenticator timestamps step by this much per reuse of a TGT:
    #: distinct for the replay cache, far inside the skew window.
    TIMESTAMP_STEP = 0.001

    def __init__(
        self, seed: int, scale: Scale, tick: Callable[[], None] = no_tick
    ) -> None:
        super().__init__(seed, tick)
        self.world = world = World(seed, scale, tick=tick)
        self.kdc = world.site.kdc
        self.tgs_key = world.site.db.principal_key(tgs_principal(REALM_NAME))
        # Every TGT is issued to one workstation, because a buffer has one
        # source address and tickets are bound to the address they went to.
        station = world.station()
        self.source = station.host.address
        rng = rng_for(seed, self.name, "tgts")
        self.tgts = []
        for user in rng.sample(range(len(world.users)), min(self.TGTS, len(world.users))):
            name, password = world.users[user]
            station.client.kdestroy()
            cred = station.client.kinit(name, password, life=TICKET_LIFE)
            self.tgts.append((user, cred, [0]))
            if len(self.tgts) % 16 == 0:
                tick()
        self.base_time = station.host.clock.now()
        self.warm_up()

    def _frames(self, index: int) -> Tuple[bytes, list]:
        """One 128-frame buffer and, per frame, what its reply must be."""
        rng = rng_for(self.seed, self.name, index)
        world = self.world
        frames, expected = [], []
        kinds = ["as"] * self.AS_PER_BUFFER + ["tgs"] * (
            self.ops_per_step - self.AS_PER_BUFFER
        )
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "as":
                user = rng.randrange(len(world.users))
                request = AsRequest(
                    client=world.user_principal(user),
                    service=tgs_principal(REALM_NAME),
                    requested_life=TICKET_LIFE,
                    timestamp=self.base_time + rng.random(),
                )
                frames.append(encode_message(MessageType.AS_REQ, request))
                expected.append((MessageType.AS_REP, user, None, None))
                continue
            user, cred, uses = self.tgts[rng.randrange(len(self.tgts))]
            uses[0] += 1
            timestamp = self.base_time + uses[0] * self.TIMESTAMP_STEP
            service = world.services[rng.randrange(len(world.services))]
            request = TgsRequest(
                service=service,
                requested_life=TICKET_LIFE,
                timestamp=timestamp,
                tgt_realm=REALM_NAME,
                tgt=cred.ticket,
                authenticator=build_authenticator(
                    client=world.user_principal(user),
                    address=self.source,
                    now=timestamp,
                    session_key=cred.session_key,
                ),
            )
            frames.append(encode_message(MessageType.TGS_REQ, request))
            expected.append((MessageType.TGS_REP, user, cred, service))
        return pack_frames(frames), expected

    def prepare(self, steps: range) -> None:
        for index in steps:
            self.plans[index] = self._frames(index)

    def step(self, index: int) -> None:
        self.results[index] = self.kdc.process_request_buffer(
            self.plans[index][0], self.source
        )

    def settle(self, index: int) -> None:
        _buffer, expected = self.plans.pop(index)
        replies = self.results.pop(index)
        world = self.world
        base = index * self.ops_per_step
        if len(replies) != len(expected):
            for k in range(len(expected)):
                self.record(base + k, "missing", ok=False)
            return
        for k, (reply, (wanted, user, cred, service)) in enumerate(
            zip(replies, expected)
        ):
            outcome = self._check_reply(
                reply, wanted, user, cred, service,
                deep=(base + k) % self.UNSEAL_SAMPLE == 0,
            )
            self.record(base + k, outcome, ok=outcome.startswith("ok"))

    def _check_reply(self, reply, wanted, user, cred, service, deep) -> str:
        name, password = self.world.users[user]
        try:
            mtype, message = decode_message(bytes(reply))
            if mtype != wanted:
                return f"got:{mtype.name}"
            if message.client.name != name:
                return "wrong-client"
            if not deep:
                return f"ok:{mtype.name}:{name}"
            if cred is None:
                body = message.open(string_to_key(password))
                ticket = unseal_ticket(body.ticket, self.tgs_key)
            else:
                body = message.open(cred.session_key)
                ticket = unseal_ticket(
                    body.ticket, self.world.realm.service_key(service)
                )
        except (KerberosError, ValueError) as exc:
            return f"error:{type(exc).__name__}"
        if ticket.client.name != name or ticket.session_key != body.session_key:
            return "wrong-ticket"
        return f"ok:{mtype.name}:{ticket.client.name}:unsealed"


# -- login_storm -------------------------------------------------------------


class LoginStorm(Workload):
    """9 AM: rounds of AS logins posted open-loop at a queued KDC."""

    name = "login_storm"
    ops_per_step = 130
    budget_ops_per_s = 1100.0
    warmup_steps = 2

    #: Simulated seconds over which one round's logins arrive.
    WINDOW = 0.1
    QUEUE = WorkQueueConfig(workers=2, batch_size=8, queue_limit=256)
    #: One reply in this many is opened with the user's key.
    OPEN_SAMPLE = 10

    def __init__(
        self, seed: int, scale: Scale, tick: Callable[[], None] = no_tick
    ) -> None:
        super().__init__(seed, tick)
        self.world = world = World(seed, scale, kdc_queue=self.QUEUE, tick=tick)
        self.kdc_address = world.site.master_host.address
        self.stations = [world.station() for _ in range(self.ops_per_step)]
        self.warm_up()

    def prepare(self, steps: range) -> None:
        users = len(self.world.users)
        for index in steps:
            rng = rng_for(self.seed, self.name, index)
            self.plans[index] = [
                rng.randrange(users) for _ in range(self.ops_per_step)
            ]

    def step(self, index: int) -> None:
        users = self.plans.pop(index)
        world, net = self.world, self.world.net
        start = net.clock.now()
        posted: list = []

        def post(station, user: int) -> None:
            sent_at = station.host.clock.now()
            request = AsRequest(
                client=world.user_principal(user),
                service=tgs_principal(REALM_NAME),
                requested_life=TICKET_LIFE,
                timestamp=sent_at,
            )
            wire = encode_message(MessageType.AS_REQ, request)
            # Each login is its own trace root, so the KDC's queue-wait and
            # handler spans and both transit legs join it.
            with net.tracer.span(
                "ledger.login", user=request.client.name, host=station.host.name
            ):
                pending = station.host.rpc_async(
                    self.kdc_address, KERBEROS_PORT, wire
                )
            posted.append((user, sent_at, pending))

        count = len(self.stations)
        for i, (station, user) in enumerate(zip(self.stations, users)):
            net.runtime.at(
                start + (i / count) * self.WINDOW,
                lambda station=station, user=user: post(station, user),
                label="ledger.login",
            )
        net.runtime.run_until_idle()

        # The client's half of Figure 5: read every reply, and for a
        # sample turn the password into a key and open the reply.
        outcomes = []
        for k, (user, sent_at, pending) in enumerate(posted):
            body = None
            outcome = "timed_out"
            if pending.error is None and pending.reply is not None:
                mtype, message = decode_message(pending.reply)
                if mtype == MessageType.AS_REP:
                    outcome = "completed"
                    if k % self.OPEN_SAMPLE == 0:
                        body = message.open(
                            string_to_key(world.users[user][1])
                        )
                elif (
                    mtype == MessageType.ERROR
                    and message.code == ErrorCode.KDC_OVERLOADED
                ):
                    outcome = "shed"
                else:
                    outcome = f"got:{mtype.name}"
            outcomes.append((user, sent_at, outcome, body))
        self.results[index] = outcomes

    def settle(self, index: int) -> None:
        outcomes = self.results.pop(index)
        base = index * self.ops_per_step
        for k, (user, sent_at, outcome, body) in enumerate(outcomes):
            ok = outcome == "completed"
            if body is not None:
                ok = (
                    ok
                    and body.request_timestamp == sent_at
                    and body.server.same_entity(tgs_principal(REALM_NAME))
                )
            who = self.world.users[user][0]
            self.record(
                base + k, f"{outcome}:{who}" if ok else f"bad:{outcome}:{who}", ok
            )
        # completed + shed + failed == posted, or ops went missing.
        for k in range(len(outcomes), self.ops_per_step):
            self.record(base + k, "never-posted", ok=False)


# -- admin_churn -------------------------------------------------------------


class AdminChurn(Workload):
    """The write side: kpasswd over KDBM, delta propagation, and a login
    at a slave that must see the new key and refuse the old one."""

    name = "admin_churn"
    ops_per_step = 8
    budget_ops_per_s = 175.0
    warmup_steps = 2
    kdc_exchanges_per_step = 17  # per op: kdbm ticket + slave login; one probe

    SLAVES = 2
    STATIONS = 8

    def __init__(
        self, seed: int, scale: Scale, tick: Callable[[], None] = no_tick
    ) -> None:
        super().__init__(seed, tick)
        self.world = world = World(seed, scale, slaves=self.SLAVES, tick=tick)
        master = world.site.master_host.address
        self.kdbm = [
            KdbmClient(world.station().client, master, retry_policy=RetryPolicy())
            for _ in range(self.STATIONS)
        ]
        # One workstation per slave, told that slave is its only KDC.
        self.slave_clients = []
        for slave in world.site.slaves:
            client = world.station().client
            client.set_locator(REALM_NAME, StaticLocator([slave.host.address]))
            self.slave_clients.append(client)
        self.passwords = [password for _name, password in world.users]
        self.generation = [0] * len(world.users)
        self.warm_up()

    def prepare(self, steps: range) -> None:
        for index in steps:
            rng = rng_for(self.seed, self.name, index)
            users = rng.sample(range(len(self.world.users)), self.ops_per_step)
            self.plans[index] = (users, rng.randrange(self.ops_per_step))

    def step(self, index: int) -> None:
        users, probed = self.plans.pop(index)
        world = self.world
        changed = []
        for k, user in enumerate(users):
            old = self.passwords[user]
            self.generation[user] += 1
            new = f"{world.users[user][1]}.{self.generation[user]}"
            self.kdbm[k % len(self.kdbm)].change_password(
                world.user_principal(user), old, new
            )
            self.passwords[user] = new
            changed.append((user, old, new))
        round_ = world.realm.propagate()
        results = []
        for k, (user, old, new) in enumerate(changed):
            client = self.slave_clients[k % len(self.slave_clients)]
            client.kdestroy()
            cred = client.kinit(world.users[user][0], new, life=TICKET_LIFE)
            results.append((user, cred))
        # The refusal probe: the superseded password, at a slave.
        user, old, _new = changed[probed]
        probe = self.slave_clients[0]
        probe.kdestroy()
        try:
            probe.kinit(world.users[user][0], old, life=TICKET_LIFE)
            refused = "accepted"
        except KerberosError as exc:
            refused = exc.code.name
        self.results[index] = (round_, results, refused)

    def settle(self, index: int) -> None:
        round_, results, refused = self.results.pop(index)
        base = index * self.ops_per_step
        shipped = round_.all_ok and round_.deltas == len(self.slave_clients)
        probe_ok = refused == ErrorCode.INTK_BADPW.name
        for k, (user, cred) in enumerate(results):
            ok = (
                shipped
                and cred.service.same_entity(tgs_principal(REALM_NAME))
                and cred.life > 0
            )
            who = self.world.users[user][0]
            outcome = f"changed+login:{who}" if ok else f"stale:{who}"
            if k == 0:
                # The group's probe rides on its first op.
                outcome += f"+probe:{refused}"
                ok = ok and probe_ok
            self.record(base + k, outcome, ok)
        for k in range(len(results), self.ops_per_step):
            self.record(base + k, "missing", ok=False)


WORKLOADS = {
    cls.name: cls for cls in (LoginSession, KdcBatch, LoginStorm, AdminChurn)
}
