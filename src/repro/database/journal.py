"""The database update journal: the substrate for incremental propagation.

The paper ships every slave a *full* database dump every hour ("The
database is sent, in its entirety, to the slave machines", Section 5.3)
— O(database) bytes per slave per password change.  The journal records
every mutation the master makes as a sequence-numbered entry, so the
propagation plane (:mod:`repro.replication`) can ship only the entries a
slave has not yet seen.  The hourly full dump of Figure 13 remains as
the safety net and the catch-up path.

Positions are identified by ``(epoch, seq)``:

* **seq** increases by one per mutation, starting at 1;
* **epoch** names one continuous journal history.  It changes when the
  history breaks — a different master (promotion after a disaster), a
  rebuilt database — so a slave can never mistake entries from one
  history for a continuation of another.

The journal is bounded: beyond :data:`DEFAULT_JOURNAL_LIMIT` entries the
oldest are compacted away into the *checkpoint* (the state a full dump
captures).  A slave whose position predates the oldest retained entry
simply gets a full dump — exactly the Figure 13 behaviour.
"""

from __future__ import annotations

import zlib
from collections import deque
from itertools import islice
from typing import Deque, List, Optional

from repro.encode import WireStruct, field

#: Journal entry opcodes (mirrors the store-level mutation surface).
OP_PUT = 1
OP_DELETE = 2

#: Entries retained before compaction into the checkpoint.
DEFAULT_JOURNAL_LIMIT = 4096


class JournalEntry(WireStruct):
    """One journaled mutation, as carried on the wire by delta kprop.

    ``value`` is the raw stored record (keys inside are already sealed
    under the master key, so entries — like full dumps — are useless to
    an eavesdropper); empty for deletions.
    """

    FIELDS = (
        field("seq", "u64"),
        field("time", "f64"),
        field("op", "u8"),
        field("key", "string"),
        field("value", "bytes"),
    )


def default_epoch(realm: str, generation: int = 0) -> int:
    """A deterministic epoch for a realm's journal.

    ``generation`` distinguishes successive masters of the same realm
    (slave promotion bumps it), so a promoted master's journal can never
    be mistaken for a continuation of the lost one's.
    """
    return (zlib.crc32(realm.encode("utf-8")) << 8) | (generation & 0xFF)


class UpdateJournal:
    """A bounded, sequence-numbered log of database mutations."""

    def __init__(
        self, epoch: int, limit: int = DEFAULT_JOURNAL_LIMIT
    ) -> None:
        if limit <= 0:
            raise ValueError(f"journal limit must be positive, got {limit}")
        self.epoch = int(epoch)
        self.limit = int(limit)
        self._entries: Deque[JournalEntry] = deque()
        #: Highest sequence number ever assigned (0 = nothing journaled).
        self.last_seq = 0
        #: Everything at or below this seq lives only in the checkpoint
        #: (a full dump); the journal retains (checkpoint_seq, last_seq].
        self.checkpoint_seq = 0

    # -- recording --------------------------------------------------------

    def append(self, op: int, key: str, value: bytes, now: float) -> JournalEntry:
        """Record one mutation; returns the entry (seq assigned here)."""
        if op not in (OP_PUT, OP_DELETE):
            raise ValueError(f"unknown journal opcode {op}")
        self.last_seq += 1
        entry = JournalEntry(
            seq=self.last_seq,
            time=float(now),
            op=op,
            key=key,
            value=bytes(value),
        )
        self._entries.append(entry)
        if len(self._entries) > self.limit:
            self.compact(keep=self.limit)
        return entry

    def compact(self, keep: Optional[int] = None) -> int:
        """Drop the oldest entries, folding them into the checkpoint.

        ``keep`` bounds how many recent entries survive (defaults to the
        journal limit).  Returns how many entries were dropped; slaves
        older than the new ``checkpoint_seq`` need a full dump.
        """
        keep = self.limit if keep is None else max(0, int(keep))
        dropped = 0
        while len(self._entries) > keep:
            entry = self._entries.popleft()
            self.checkpoint_seq = entry.seq
            dropped += 1
        return dropped

    def bump_epoch(self) -> int:
        """Start a new history (rebuilt/restored database): slaves with
        positions in the old epoch must take a full dump."""
        self.epoch += 1
        return self.epoch

    # -- reading ----------------------------------------------------------

    def entries_since(self, seq: int) -> Optional[List[JournalEntry]]:
        """Entries with sequence numbers in ``(seq, last_seq]``, in order.

        Returns None when the journal cannot supply them — the requested
        position predates the checkpoint (compacted away) or lies beyond
        ``last_seq`` (a position from some other history).  None means
        "send a full dump instead".
        """
        if seq > self.last_seq or seq < self.checkpoint_seq:
            return None
        # Retained seqs are contiguous in (checkpoint_seq, last_seq], so
        # these are the last ``last_seq - seq`` entries: O(delta), where
        # a scan was O(journal) per slave per round.
        tail = list(islice(reversed(self._entries), self.last_seq - seq))
        tail.reverse()
        return tail

    def entries_matching(self, seq, predicate) -> List[JournalEntry]:
        """Entries after ``seq`` whose key satisfies ``predicate`` —
        the shard-rebalance catch-up read (replay what was mutated in a
        hash range while its snapshot streamed).

        Unlike :meth:`entries_since`, a compacted position is an error
        here: rebalancing marked ``seq`` moments ago, so losing it means
        the journal is too small for the realm's churn.
        """
        if seq > self.last_seq or seq < self.checkpoint_seq:
            raise ValueError(
                f"journal position {seq} not retained "
                f"(checkpoint {self.checkpoint_seq}, last {self.last_seq})"
            )
        return [e for e in self._entries if e.seq > seq and predicate(e.key)]

    def depth(self) -> int:
        """Entries currently retained (the journal-depth gauge)."""
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"UpdateJournal(epoch={self.epoch}, last_seq={self.last_seq}, "
            f"checkpoint_seq={self.checkpoint_seq}, depth={self.depth()})"
        )
