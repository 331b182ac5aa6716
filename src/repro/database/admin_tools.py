"""Database administration programs (paper Figure 1 and Section 6.3).

*"The Kerberos administrator's job begins with running a program to
initialize the database.  Another program must be run to register
essential principals in the database, such as the Kerberos
administrator's name with an admin instance."*

These are those programs:

* :func:`kdb_init` — create a realm database, derive the master key,
  and register the essential principals (the TGS and the KDBM service);
* :func:`register_essential_admin` — the administrator's admin instance
  plus its ACL entry;
* :func:`kdb_util_dump` / :func:`kdb_util_load` — offline dump/restore
  to a file (the administrator "would also be wise to maintain backups
  of the Master database");
* :func:`ext_srvtab` — extract a server's key into its ``/etc/srvtab``
  equivalent ("some data (including the server's key) must be extracted
  from the database and installed in a file on the server's machine").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.crypto import KeyGenerator
from repro.database.acl import AccessControlList
from repro.database.db import KerberosDatabase
from repro.database.masterkey import MasterKey
from repro.database.schema import ATTR_NO_TGT, DEFAULT_MAX_LIFE
from repro.database.store import RecordStore
from repro.encode import WireStruct, field
from repro.principal import Principal, kdbm_principal, tgs_principal


def kdb_init(
    realm: str,
    master_password: str,
    keygen: KeyGenerator,
    store: Optional[RecordStore] = None,
    now: float = 0.0,
) -> KerberosDatabase:
    """Initialize a realm: master key, K.M verifier, TGS and KDBM entries.

    The KDBM service is registered with :data:`ATTR_NO_TGT` because "the
    ticket-granting service will not issue tickets for it. Instead, the
    authentication service itself must be used" (Section 5.1).
    """
    master = MasterKey.from_password(master_password)
    db = KerberosDatabase(realm, master, store=store)
    db.add_principal(
        tgs_principal(realm),
        key=keygen.session_key(),
        now=now,
        mod_by="kdb_init",
    )
    db.add_principal(
        kdbm_principal(realm),
        key=keygen.session_key(),
        now=now,
        attributes=ATTR_NO_TGT,
        mod_by="kdb_init",
    )
    return db


def register_essential_admin(
    db: KerberosDatabase,
    acl: AccessControlList,
    username: str,
    admin_password: str,
    now: float = 0.0,
) -> Principal:
    """Create ``username.admin`` and put it on the ACL (Section 5.1)."""
    admin = Principal(username, "admin", db.realm)
    db.add_principal(admin, password=admin_password, now=now, mod_by="kdb_edit")
    acl.add(admin)
    return admin


def register_service(
    db: KerberosDatabase,
    service: Principal,
    keygen: KeyGenerator,
    now: float = 0.0,
    max_life: float = DEFAULT_MAX_LIFE,
):
    """Register a network service with a random key (Section 6.3) and
    return the key for srvtab installation."""
    key = keygen.session_key()
    db.add_principal(
        service, key=key, now=now, max_life=max_life, mod_by="kdb_edit"
    )
    return key


# -- offline backup (kdb_util) ------------------------------------------------

def kdb_util_dump(db: KerberosDatabase, path: str, now: float = 0.0) -> None:
    """Write a full database dump to a file."""
    with open(path, "wb") as f:
        f.write(db.dump(now=now))


def kdb_util_load(db: KerberosDatabase, path: str) -> int:
    """Restore a database from a dump file; returns the record count."""
    with open(path, "rb") as f:
        return db.load_dump(f.read())


# -- srvtab extraction (ext_srvtab) ----------------------------------------------

_SRVTAB_MAGIC = b"SRVTAB01"


class SrvtabEntry(WireStruct):
    """One service key in a srvtab."""

    FIELDS = (
        field("service", Principal),
        field("kvno", "u32"),
        field("key", "bytes"),
    )


class Srvtab(WireStruct):
    """A srvtab file's contents, behind :data:`_SRVTAB_MAGIC`."""

    FIELDS = (field("entries", ("list", SrvtabEntry)),)


def ext_srvtab(db: KerberosDatabase, services: List[Principal]) -> bytes:
    """Extract service keys into srvtab file contents.

    "The /etc/srvtab file authenticates the server as a password typed at
    a terminal authenticates the user" (Section 6.3).  The result is
    installed on the server's machine; see
    :class:`repro.core.applib.SrvTab` for the reader.
    """
    entries = [
        SrvtabEntry(
            service=Principal(service.name, service.instance, db.realm),
            kvno=db.get_record(service).key_version,
            key=db.principal_key(service).key_bytes,
        )
        for service in services
    ]
    return _SRVTAB_MAGIC + Srvtab(entries=entries).to_bytes()


def parse_srvtab(data: bytes) -> List[Tuple[Principal, int, bytes]]:
    """Parse srvtab bytes into (principal, key_version, key_bytes) rows."""
    if not data.startswith(_SRVTAB_MAGIC):
        raise ValueError("not a srvtab file")
    srvtab = Srvtab.from_bytes(data, len(_SRVTAB_MAGIC))
    return [(entry.service, entry.kvno, entry.key) for entry in srvtab.entries]
