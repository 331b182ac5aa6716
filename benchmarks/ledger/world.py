"""The benchmark's own realm generator.

Everything a workload runs against is built here from the seed: the
population, the service list, the topology.  It deliberately shares no
code with ``repro.workload`` or ``benchmarks/bench_util.py`` so a change
to either can never move the benchmark's inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core import RetryPolicy
from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm, RealmTopology

REALM_NAME = "ATHENA.MIT.EDU"
#: Simulated one-way wire delay (seconds): small, but non-zero so the
#: sim clock moves and every datagram leg is a real scheduled event.
WIRE_LATENCY = 0.0005

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


@dataclass(frozen=True)
class Scale:
    """How big a world and how many set-up repeats.  ``FULL`` is the
    Section 9 deployment; the selftest shrinks it."""

    users: int = 5000
    services: int = 65
    #: World builds timed per run; ``setup_s`` is their median and the
    #: last one is the world the run uses.
    setup_builds: int = 3


FULL = Scale()

#: Users registered between two ``tick`` calls during a build.
TICK_EVERY = 250


def no_tick() -> None:
    pass


def rng_for(seed: int, *purpose: object) -> random.Random:
    """A generator private to one purpose, so adding a draw in one place
    never shifts the inputs of another.  (String seeds hash stably.)"""
    return random.Random(":".join(["ledger", str(seed), *map(str, purpose)]))


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(_ALPHABET) for _ in range(length))


class World:
    """One realm plus the generated population the workloads draw from."""

    def __init__(
        self,
        seed: int,
        scale: Scale,
        slaves: int = 0,
        kdc_queue: Optional[object] = None,
        tick: Callable[[], None] = no_tick,
    ) -> None:
        """``tick`` is called between stages of the build so the caller
        can read the machine yardstick while set-up is timed."""
        self.seed = seed
        self.scale = scale
        self.net = Network(latency=WIRE_LATENCY, seed=seed)
        self.realm = Realm(
            self.net,
            REALM_NAME,
            seed=f"ledger-{seed}".encode(),
            topology=RealmTopology(slaves_per_shard=slaves, kdc_queue=kdc_queue),
        )
        self.site = self.realm.shards[0]
        rng = rng_for(seed, "population")
        #: (username, password), index-addressable and in a fixed order.
        self.users: List[Tuple[str, str]] = []
        for i in range(scale.users):
            name = f"u{i:04d}{_word(rng, 3)}"
            password = _word(rng, 10)
            self.realm.add_user(name, password)
            self.users.append((name, password))
            if (i + 1) % TICK_EVERY == 0:
                tick()
        self.services: List[Principal] = [
            self.realm.add_service(f"svc{i:02d}", f"host{i:02d}")[0]
            for i in range(scale.services)
        ]
        tick()
        if slaves:
            # The population outgrew the journal, so this is the first
            # full Figure 13 dump to every slave.
            self.realm.propagate()
            tick()

    def user_principal(self, index: int) -> Principal:
        return Principal(self.users[index][0], "", REALM_NAME)

    def station(self):
        """A workstation whose client retries by explicit policy."""
        return self.realm.workstation(retry_policy=RetryPolicy())
