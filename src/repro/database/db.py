"""The Kerberos database library (paper Sections 2.2 and 5).

Two kinds of consumer, with different rights:

* the **authentication server** "performs read-only operations on the
  Kerberos database, namely, the authentication of principals, and
  generation of session keys" — it may run against a slave copy;
* the **administration server (KDBM)** needs write access and "may only
  run on the machine housing the Kerberos database".

A :class:`KerberosDatabase` opened with ``readonly=True`` (every slave
copy) raises :class:`ReadOnlyDatabase` on any mutation, which is the
mechanism behind Figures 10 and 11.

Every database carries the historical ``K.M`` verification principal —
the master key sealed under itself — so opening a database with the wrong
master key fails immediately instead of corrupting records later.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.crypto import DesKey, keycache, string_to_key
from repro.database.journal import (
    DEFAULT_JOURNAL_LIMIT,
    JournalEntry,
    OP_DELETE,
    OP_PUT,
    UpdateJournal,
    default_epoch,
)
from repro.database.masterkey import MasterKey, MasterKeyError
from repro.database.schema import (
    DEFAULT_EXPIRATION_DELTA,
    DEFAULT_MAX_LIFE,
    PrincipalRecord,
)
from repro.database.store import MemoryStore, RecordStore
from repro.encode import DecodeError, WireStruct, field
from repro.principal import Principal

#: The master-key verification principal, as in the historical database.
MASTER_VERIFY_KEY = "K.M"

#: Decoded :class:`PrincipalRecord` objects each database keeps around.
RECORD_CACHE_SIZE = 4096

#: Dump format v2: v1 plus the journal position (epoch, seq) the dump
#: captures, so a slave loading it knows where delta catch-up resumes.
_DUMP_MAGIC = b"KDBDUMP2"


class DumpEntry(WireStruct):
    """One record of a dump: its store key and its stored bytes (keys
    inside are sealed under the master key)."""

    FIELDS = (field("key", "string"), field("value", "bytes"))


class Dump(WireStruct):
    """Figure 13's payload, behind :data:`_DUMP_MAGIC`: every record,
    and the journal position ``(epoch, seq)`` the dump captures."""

    FIELDS = (
        field("realm", "string"),
        field("time", "f64"),
        field("epoch", "u64"),
        field("seq", "u64"),
        field("entries", ("list", DumpEntry)),
    )


class DatabaseError(Exception):
    """Base class for Kerberos database errors."""


class NoSuchPrincipal(DatabaseError):
    """Lookup failed: the authentication server 'checks that it knows
    about the client' and this is the failure branch."""


class PrincipalExists(DatabaseError):
    """Registration collided with an existing entry (the register
    program's uniqueness check, Section 7.1)."""


class ReadOnlyDatabase(DatabaseError):
    """A mutation was attempted on a slave copy (Figure 11)."""


class KerberosDatabase:
    """The realm's principal database plus its master key."""

    def __init__(
        self,
        realm: str,
        master_key: MasterKey,
        store: Optional[RecordStore] = None,
        readonly: bool = False,
        journal_epoch: Optional[int] = None,
        journal_limit: int = DEFAULT_JOURNAL_LIMIT,
    ) -> None:
        if not realm:
            raise ValueError("realm must not be empty")
        self.realm = realm
        self.master_key = master_key
        self.store = store if store is not None else MemoryStore()
        self.readonly = readonly
        self._record_cache = keycache._LruCache(RECORD_CACHE_SIZE)
        # Writable (master) databases journal every mutation for delta
        # propagation; read-only copies instead track the journal
        # position they have applied up to (fed by load_dump/apply_entries).
        self.journal: Optional[UpdateJournal] = (
            None
            if readonly
            else UpdateJournal(
                epoch=(
                    journal_epoch
                    if journal_epoch is not None
                    else default_epoch(realm)
                ),
                limit=journal_limit,
            )
        )
        self.loaded_epoch: Optional[int] = None
        self.loaded_seq: int = 0
        if len(self.store) == 0 and not readonly:
            self._install_verifier()
        elif len(self.store) > 0:
            self.verify_master_key()

    # -- master key verification ------------------------------------------

    def _install_verifier(self) -> None:
        sealed = self.master_key.seal_key(self.master_key.des_key)
        record = PrincipalRecord(
            name="K",
            instance="M",
            sealed_key=sealed,
            key_version=1,
            expiration=float("inf"),
            max_life=0.0,
            attributes=0,
            mod_time=0.0,
            mod_by="kdb_init",
        )
        self._journal_put(MASTER_VERIFY_KEY, record.to_bytes(), now=0.0)

    def verify_master_key(self) -> None:
        """Check the K.M record opens under our master key."""
        raw = self.store.get(MASTER_VERIFY_KEY)
        if raw is None:
            raise DatabaseError("database has no K.M verification record")
        record = PrincipalRecord.from_bytes(raw)
        try:
            recovered = self.master_key.unseal_key(record.sealed_key)
        except MasterKeyError as exc:
            raise DatabaseError(f"master key verification failed: {exc}") from exc
        if recovered != self.master_key.des_key:
            raise DatabaseError("master key verification failed: key mismatch")

    # -- the journaled store API -------------------------------------------------
    #
    # Every principal-record mutation on a writable database goes through
    # these two helpers, which append to the update journal *and* write
    # the store.  They are the only sanctioned mutation path (an AST lint
    # bans direct store mutation outside this package), which is what
    # makes the journal a complete record — the precondition for delta
    # propagation being equivalent to a full dump.  No cache hears of a
    # write: the record cache checks the stored bytes and the KDC's
    # sealed-ticket skeletons are keyed on the sealing key's bytes, so a
    # changed record or key simply misses.

    def _journal_put(self, key: str, value: bytes, now: float) -> None:
        if self.journal is not None:
            self.journal.append(OP_PUT, key, value, now)
        self.store.put(key, value)

    def _journal_delete(self, key: str, now: float) -> bool:
        existed = self.store.delete(key)
        if existed and self.journal is not None:
            self.journal.append(OP_DELETE, key, b"", now)
        return existed

    # -- guards ----------------------------------------------------------------

    def _writable(self) -> None:
        if self.readonly:
            raise ReadOnlyDatabase(
                f"database copy for realm {self.realm} is read-only "
                "(changes may only be made on the master, Section 5)"
            )

    def _local(self, principal: Principal) -> Principal:
        """Accept names with our realm or with no realm; reject foreign."""
        if principal.realm and principal.realm != self.realm:
            raise NoSuchPrincipal(
                f"{principal} belongs to realm {principal.realm!r}, "
                f"this database serves {self.realm!r}"
            )
        return principal

    # -- reads -------------------------------------------------------------------

    def get_record(self, principal: Principal) -> PrincipalRecord:
        """Fetch and decode a principal's record.

        Decoded records are cached per store key, validated against the
        *raw stored bytes* on every hit — any write path (kadmin, kpasswd,
        :meth:`load_dump`, even direct store manipulation) changes the
        bytes and therefore misses, so the cache can never serve a stale
        record and needs no invalidation hooks.
        """
        self._local(principal)
        db_key = principal.db_key()
        raw = self.store.get(db_key)
        if raw is None:
            raise NoSuchPrincipal(f"no principal {principal} in {self.realm}")
        if keycache.caching_enabled():
            cached = self._record_cache.get(db_key)
            if cached is not None and cached[0] == raw:
                return cached[1]
            record = PrincipalRecord.from_bytes(raw)
            self._record_cache.put(db_key, (raw, record))
            return record
        return PrincipalRecord.from_bytes(raw)

    def exists(self, principal: Principal) -> bool:
        try:
            self.get_record(principal)
            return True
        except NoSuchPrincipal:
            return False

    def principal_key(self, principal: Principal) -> DesKey:
        """Unseal and return a principal's private key.

        The hot path is fully cached: the record decode above, the
        sealed-blob→key mapping in :meth:`MasterKey.unseal_key`, and the
        key schedule itself via ``DesKey.from_bytes``.
        """
        return self.master_key.unseal_key(self.get_record(principal).sealed_key)

    def list_principals(self) -> List[str]:
        return [k for k in self.store.keys() if k != MASTER_VERIFY_KEY]

    def __len__(self) -> int:
        return max(0, len(self.store) - 1)  # exclude K.M

    # -- writes (master only) -------------------------------------------------------

    def add_principal(
        self,
        principal: Principal,
        key: Optional[DesKey] = None,
        password: Optional[str] = None,
        now: float = 0.0,
        expiration: Optional[float] = None,
        max_life: float = DEFAULT_MAX_LIFE,
        attributes: int = 0,
        mod_by: str = "kadmin",
    ) -> PrincipalRecord:
        """Register a principal with either an explicit key or a password.

        "The private keys are negotiated at registration" (Section 2.1);
        users register with a password, servers usually with "an
        automatically generated random key" (Section 6.3).
        """
        self._writable()
        self._local(principal)
        if (key is None) == (password is None):
            raise ValueError("provide exactly one of key= or password=")
        if principal.db_key() == MASTER_VERIFY_KEY:
            raise ValueError("K.M is reserved for master key verification")
        if self.store.get(principal.db_key()) is not None:
            raise PrincipalExists(f"{principal} already registered")
        if key is None:
            key = string_to_key(password)
        record = PrincipalRecord(
            name=principal.name,
            instance=principal.instance,
            sealed_key=self.master_key.seal_key(key),
            key_version=1,
            expiration=(
                expiration if expiration is not None
                else now + DEFAULT_EXPIRATION_DELTA
            ),
            max_life=max_life,
            attributes=attributes,
            mod_time=now,
            mod_by=mod_by,
        )
        self._journal_put(principal.db_key(), record.to_bytes(), now=now)
        return record

    def change_key(
        self,
        principal: Principal,
        new_key: Optional[DesKey] = None,
        new_password: Optional[str] = None,
        now: float = 0.0,
        mod_by: str = "kpasswd",
    ) -> PrincipalRecord:
        """Change a principal's key (kpasswd / kadmin cpw)."""
        self._writable()
        record = self.get_record(principal)
        if (new_key is None) == (new_password is None):
            raise ValueError("provide exactly one of new_key= or new_password=")
        if new_key is None:
            new_key = string_to_key(new_password)
        updated = record.replace(
            sealed_key=self.master_key.seal_key(new_key),
            key_version=record.key_version + 1,
            mod_time=now,
            mod_by=mod_by,
        )
        self._journal_put(principal.db_key(), updated.to_bytes(), now=now)
        return updated

    def set_attributes(
        self, principal: Principal, attributes: int, now: float = 0.0,
        mod_by: str = "kadmin",
    ) -> PrincipalRecord:
        self._writable()
        record = self.get_record(principal)
        updated = record.replace(
            attributes=attributes, mod_time=now, mod_by=mod_by
        )
        self._journal_put(principal.db_key(), updated.to_bytes(), now=now)
        return updated

    def set_max_life(
        self, principal: Principal, max_life: float, now: float = 0.0,
        mod_by: str = "kadmin",
    ) -> PrincipalRecord:
        """Change a principal's maximum ticket lifetime — the knob the
        Section 8 lifetime-tradeoff discussion is about."""
        self._writable()
        record = self.get_record(principal)
        updated = record.replace(max_life=max_life, mod_time=now, mod_by=mod_by)
        self._journal_put(principal.db_key(), updated.to_bytes(), now=now)
        return updated

    def delete_principal(self, principal: Principal, now: float = 0.0) -> None:
        self._writable()
        self._local(principal)
        if not self._journal_delete(principal.db_key(), now=now):
            raise NoSuchPrincipal(f"no principal {principal} in {self.realm}")

    # -- record import / removal (shard rebalancing) ---------------------------------

    def import_record(self, key: str, value: bytes, now: float = 0.0) -> None:
        """Adopt a raw stored record from another shard of the same realm.

        Unlike :meth:`apply_entries`, this is a *master-side* write: it
        journals, so the importing shard's own slaves replicate the moved
        record through ordinary delta propagation.  The record bytes are
        already sealed under the (realm-wide) master key — they transfer
        verbatim.
        """
        self._writable()
        if key == MASTER_VERIFY_KEY:
            raise ValueError("K.M is reserved for master key verification")
        self._journal_put(key, bytes(value), now=now)

    def remove_record(self, key: str, now: float = 0.0) -> bool:
        """Drop a record this shard no longer owns (post-move cleanup).

        Journaled like :meth:`import_record`, for the same reason; absent
        keys are not an error (the range may be sparsely populated).
        Returns whether the record existed.
        """
        self._writable()
        if key == MASTER_VERIFY_KEY:
            raise ValueError("K.M is reserved for master key verification")
        return self._journal_delete(key, now=now)

    # -- dump / load (Figure 13) -----------------------------------------------------

    def dump(self, now: float = 0.0) -> bytes:
        """Serialize the entire database ("The database is sent, in its
        entirety, to the slave machines").  Keys inside are already sealed
        under the master key, so the dump is eavesdropper-safe.

        The header carries the journal position ``(epoch, seq)`` the dump
        captures — the checkpoint a slave resumes delta catch-up from.
        """
        epoch, seq = self.position
        entries = [DumpEntry(key=k, value=v) for k, v in self.store.items()]
        return _DUMP_MAGIC + Dump(
            realm=self.realm, time=now, epoch=epoch, seq=seq, entries=entries
        ).to_bytes()

    @property
    def position(self) -> Tuple[int, int]:
        """The journal position ``(epoch, seq)`` this copy holds: a
        master's journal head, a replica's last load (a replica
        re-dumping in a promotion drill carries it downstream)."""
        if self.journal is not None:
            return self.journal.epoch, self.journal.last_seq
        return self.loaded_epoch or 0, self.loaded_seq

    @staticmethod
    def read_dump(data: bytes) -> Dump:
        """The :class:`Dump` in ``data``; :class:`DatabaseError` if it is
        not one.  kpropd reads a transfer's position off it before
        :meth:`apply_dump` lets it replace the database."""
        if not data.startswith(_DUMP_MAGIC):
            raise DatabaseError("not a Kerberos database dump")
        try:
            return Dump.from_bytes(data, len(_DUMP_MAGIC))
        except DecodeError as exc:
            raise DatabaseError(f"corrupt dump: {exc}") from exc

    def load_dump(self, data: bytes) -> int:
        """Replace the database contents from dump bytes (slave update,
        ``kdb_util_load``); see :meth:`apply_dump`."""
        return self.apply_dump(self.read_dump(data))

    def apply_dump(self, dump: Dump) -> int:
        """Replace the database contents from a dump.

        Bypasses the read-only guard deliberately: propagation is the one
        sanctioned way slave contents change.  Returns the record count;
        ``loaded_epoch``/``loaded_seq`` record the journal position the
        dump captured, from which delta catch-up resumes.
        """
        if dump.realm != self.realm:
            raise DatabaseError(
                f"dump is for realm {dump.realm!r}, this database is {self.realm!r}"
            )
        self.store.clear()
        for entry in dump.entries:
            self.store.put(entry.key, entry.value)
        self.verify_master_key()
        self.dump_time = dump.time
        self.loaded_epoch = dump.epoch
        self.loaded_seq = dump.seq
        return len(dump.entries)

    def apply_entries(self, entries: List[JournalEntry]) -> int:
        """Apply journal entries to a slave copy (delta update).

        Like :meth:`load_dump`, this deliberately bypasses the read-only
        guard: delta propagation is the other sanctioned way slave
        contents change.  The caller (kpropd) is responsible for checksum
        verification and gap/epoch checking *before* applying; this
        method only replays.  Returns the number of entries applied and
        advances ``loaded_seq``.
        """
        applied = 0
        for entry in entries:
            if entry.op == OP_PUT:
                self.store.put(entry.key, entry.value)
            elif entry.op == OP_DELETE:
                self.store.delete(entry.key)
            else:
                raise DatabaseError(f"unknown journal opcode {entry.op}")
            self.loaded_seq = entry.seq
            applied += 1
        return applied

    def replica(self, store: Optional[RecordStore] = None) -> "KerberosDatabase":
        """Create an empty read-only copy for a slave machine, then feed it
        via :meth:`load_dump`.  Provisioning stamps this database's
        :attr:`position` on the copy, so a dump recorded before it is
        behind the copy from the first moment."""
        slave = KerberosDatabase.__new__(KerberosDatabase)
        slave.realm = self.realm
        slave.master_key = self.master_key
        slave.store = store if store is not None else MemoryStore()
        slave.readonly = True
        slave._record_cache = keycache._LruCache(RECORD_CACHE_SIZE)
        slave.journal = None
        slave.loaded_epoch, slave.loaded_seq = self.position
        return slave
