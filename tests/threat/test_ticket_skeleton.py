"""A shared sealed-ticket skeleton never crosses a key or a length.

Figure 3's ticket, ``{s, c, addr, timestamp, life, K_s,c}K_s``, opens
with the server's name, and "a ticket is good for a single server": the
seal header and the whole blocks of ``s`` are the same plaintext for
every ticket one key seals at one length.  Under PCBC that prefix's
ciphertext and chain depend on nothing else, so the KDC keeps its state
(the skeleton) and resumes every such ticket after it
(``seal_tickets_cached``), in a cache of its own.  The entry is keyed
on the sealing key's bytes, the ticket's length and the prefix
plaintext, and nothing flushes it when the database changes.

Each case issues tickets, changes between two batches what one part of
that key must see, and asserts that every ticket of the second batch is
bit-identical to ``seal_ticket`` under the key the database holds now.
Each is also run on a planted skeleton key that drops the part it
needs, and must fail there.
"""

import pytest

from repro.core import KerberosError, Principal
from repro.core.kdc import SKELETON_CACHE_SIZE
from repro.core.ticket import seal_ticket, unseal_ticket
from repro.crypto import keycache
from repro.netsim import Network
from repro.principal import tgs_principal
from repro.realm import Realm

REALM = "ATHENA.MIT.EDU"
RLOGIN = Principal("rlogin", "priam", REALM)
RLOGIX = Principal("rlogix", "priam", REALM)  # a rename, same length

#: Where each part sits in the skeleton key ``seal_tickets_cached`` makes.
KEY_BYTES, LENGTH, PREFIX = range(3)


def build_realm():
    realm = Realm(Network(seed=30), REALM, seed=b"ticket-skeleton")
    for user in ("jis", "bcn", "alice"):
        realm.add_user(user, f"{user}-pw")
    realm.add_service("rlogin", "priam")
    return realm


def issue(realm, user, service=None):
    """The ticket the KDC issues ``user`` for ``service`` (the TGT when
    None), asked for from a fresh workstation: ``(blob, server,
    client)``."""
    ws = realm.workstation()
    cred = ws.client.kinit(user, f"{user}-pw")
    if service is not None:
        cred = ws.client.get_credential(service)
    return cred.ticket, service or tgs_principal(REALM), Principal(user, "", REALM)


def rotate(realm, principal):
    realm.shards[0].db.change_key(
        principal, new_password="rotated", now=realm.net.clock.now()
    )


def tgs_key_rotated(realm):
    """Every AS ticket of one length shares one entry: jis's and bcn's
    TGTs resume from the same skeleton, then the TGS key rotates."""
    issue(realm, "jis")
    issue(realm, "bcn")
    rotate(realm, tgs_principal(REALM))
    return [issue(realm, "jis"), issue(realm, "bcn")]


def service_key_rotated(realm):
    issue(realm, "jis", RLOGIN)
    rotate(realm, RLOGIN)
    return [issue(realm, "jis", RLOGIN)]


def client_name_longer(realm):
    """Same key, same server: only the ticket's length tells them apart."""
    issue(realm, "jis")
    return [issue(realm, "alice")]


def service_renamed(realm):
    """rlogin.priam becomes rlogix.priam with the same key: only the
    prefix plaintext tells the two apart."""
    site = realm.shards[0]
    issue(realm, "jis", RLOGIN)
    key = site.db.principal_key(RLOGIN)
    site.db.delete_principal(RLOGIN)
    site.db.add_principal(RLOGIX, key=key)
    return [issue(realm, "jis", RLOGIX)]


#: case → (what it does between its batches, the part of the key it needs)
CASES = {
    "tgs_key_rotated": (tgs_key_rotated, KEY_BYTES),
    "service_key_rotated": (service_key_rotated, KEY_BYTES),
    "client_name_longer": (client_name_longer, LENGTH),
    "service_renamed": (service_renamed, PREFIX),
}


def assert_sealed_now(realm, blob, server, client):
    """``blob`` is ``seal_ticket`` of a ticket for ``server`` and
    ``client`` under the key the database holds for ``server`` now."""
    key = realm.shards[0].db.principal_key(server)
    ticket = unseal_ticket(blob, key)
    assert (ticket.server, ticket.client) == (server, client)
    assert seal_ticket(ticket, key) == blob


class NarrowCache(keycache._LruCache):
    """A skeleton cache that ignores ``part`` of the key it is given."""

    __slots__ = ("part",)

    def __init__(self, part):
        super().__init__(SKELETON_CACHE_SIZE)
        self.part = part

    def get(self, key):
        return super().get(key[:self.part] + key[self.part + 1:])

    def put(self, key, value):
        super().put(key[:self.part] + key[self.part + 1:], value)


@pytest.mark.parametrize("case", CASES)
def test_no_ticket_crosses_a_key_or_a_length(case):
    realm = build_realm()
    scenario, _part = CASES[case]
    for blob, server, client in scenario(realm):
        assert_sealed_now(realm, blob, server, client)


@pytest.mark.parametrize("case", CASES)
def test_a_planted_skeleton_key_that_drops_the_part_crosses(case):
    scenario, part = CASES[case]
    realm = build_realm()
    realm.shards[0].kdc._skeletons = NarrowCache(part)
    with pytest.raises((AssertionError, KerberosError)):
        for blob, server, client in scenario(realm):
            assert_sealed_now(realm, blob, server, client)


def test_rotated_service_key_cannot_hit_stale_skeleton():
    """Content addressing alone makes a rotated key miss — no listener
    stands behind it: the sealed ticket after rotation opens under the
    new key."""
    realm = build_realm()
    ws = realm.workstation()
    ws.client.kinit("jis", "jis-pw")
    ws.client.get_credential(RLOGIN)
    rotate(realm, RLOGIN)
    ws = realm.workstation()
    ws.client.kinit("jis", "jis-pw")
    cred = ws.client.get_credential(RLOGIN)
    ticket = unseal_ticket(cred.ticket, realm.shards[0].db.principal_key(RLOGIN))
    assert ticket.client == Principal("jis", "", REALM)
