"""The Kerberos database (paper Section 5).

*"The Kerberos database needs are straightforward; a record is held for
each principal, containing the name, private key, and expiration date of
the principal, along with some administrative information."*

The package mirrors the paper's Figure 1 components:

* :mod:`repro.database.store` — the replaceable record-storage module
  ("the current Athena implementation of the database library uses ndbm,
  although INGRES was originally used.  Other database management
  libraries could be used as well"): a common interface with in-memory
  and file-backed implementations;
* :mod:`repro.database.schema` — the per-principal record;
* :mod:`repro.database.masterkey` — the master database key under which
  "all passwords in the Kerberos database are encrypted" (Section 5.3);
* :mod:`repro.database.db` — the database library proper, used by the
  authentication server (read-only) and the KDBM server (read-write);
* :mod:`repro.database.acl` — the KDBM access control list (Section 5.1);
* :mod:`repro.database.admin_tools` — the database administration
  programs (initialization, registration, dump/load).
"""

from repro.database.acl import AccessControlList
from repro.database.db import (
    DatabaseError,
    KerberosDatabase,
    NoSuchPrincipal,
    PrincipalExists,
    ReadOnlyDatabase,
)
from repro.database.journal import JournalEntry, UpdateJournal
from repro.database.masterkey import MasterKey
from repro.database.schema import DEFAULT_MAX_LIFE, PrincipalRecord
from repro.database.store import FileStore, MemoryStore, RecordStore

__all__ = [
    "AccessControlList",
    "DatabaseError",
    "DEFAULT_MAX_LIFE",
    "FileStore",
    "JournalEntry",
    "KerberosDatabase",
    "MasterKey",
    "MemoryStore",
    "NoSuchPrincipal",
    "PrincipalExists",
    "PrincipalRecord",
    "ReadOnlyDatabase",
    "RecordStore",
    "UpdateJournal",
]

