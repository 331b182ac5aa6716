"""Unit tests for the update journal (the delta-propagation substrate)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import KerberosDatabase, MasterKey
from repro.database.journal import (
    OP_DELETE,
    OP_PUT,
    JournalEntry,
    UpdateJournal,
    default_epoch,
)
from repro.principal import Principal

REALM = "ATHENA.MIT.EDU"


class TestUpdateJournal:
    def test_append_assigns_contiguous_seqs(self):
        j = UpdateJournal(epoch=7)
        a = j.append(OP_PUT, "k1", b"v1", now=1.0)
        b = j.append(OP_DELETE, "k1", b"", now=2.0)
        assert (a.seq, b.seq) == (1, 2)
        assert j.last_seq == 2

    def test_entries_since(self):
        j = UpdateJournal(epoch=7)
        for i in range(5):
            j.append(OP_PUT, f"k{i}", b"v", now=float(i))
        assert [e.seq for e in j.entries_since(2)] == [3, 4, 5]
        assert j.entries_since(5) == []
        assert [e.seq for e in j.entries_since(0)] == [1, 2, 3, 4, 5]

    def test_entries_since_future_position_is_a_gap(self):
        """A position beyond last_seq comes from some other history —
        the journal cannot serve it."""
        j = UpdateJournal(epoch=7)
        j.append(OP_PUT, "k", b"v", now=0.0)
        assert j.entries_since(9) is None

    def test_compaction_bounds_the_journal(self):
        j = UpdateJournal(epoch=7, limit=3)
        for i in range(10):
            j.append(OP_PUT, f"k{i}", b"v", now=float(i))
        assert j.depth() == 3
        assert j.checkpoint_seq == 7
        # Positions at/after the checkpoint are servable...
        assert [e.seq for e in j.entries_since(7)] == [8, 9, 10]
        # ...older ones require a full dump.
        assert j.entries_since(6) is None

    def test_bump_epoch(self):
        j = UpdateJournal(epoch=7)
        assert j.bump_epoch() == 8
        assert j.epoch == 8

    @settings(max_examples=60, deadline=None)
    @given(
        limit=st.integers(1, 12),
        history=st.lists(
            st.one_of(
                st.just(("append", 0)),
                st.tuples(st.just("compact"), st.integers(0, 12)),
                st.just(("bump_epoch", 0)),
            ),
            max_size=60,
        ),
    )
    def test_entries_since_is_the_tail_the_scan_finds(self, limit, history):
        """``entries_since`` reads the last ``last_seq - seq`` entries
        off the end (retained seqs are contiguous); after any history of
        appends, compactions and epoch bumps it returns what scanning
        the whole retained journal returns — at every position, both
        ends and both ``None`` sides included."""
        j = UpdateJournal(epoch=7, limit=limit)
        for step, (what, arg) in enumerate(history):
            if what == "append":
                j.append(OP_PUT, f"k{step}", b"v", now=float(step))
            elif what == "compact":
                j.compact(keep=arg)
            else:
                j.bump_epoch()
            retained = list(j._entries)
            assert [e.seq for e in retained] == list(
                range(j.checkpoint_seq + 1, j.last_seq + 1)
            )
            for seq in range(-1, j.last_seq + 3):
                scanned = (
                    None if seq > j.last_seq or seq < j.checkpoint_seq
                    else [e for e in retained if e.seq > seq]
                )
                assert j.entries_since(seq) == scanned, (step, seq)
            assert j.entries_since(j.last_seq) == []
            assert j.entries_since(j.checkpoint_seq) == retained
            assert j.entries_since(j.last_seq + 1) is None
            if j.checkpoint_seq:
                assert j.entries_since(j.checkpoint_seq - 1) is None

    def test_bad_opcode_rejected(self):
        j = UpdateJournal(epoch=7)
        with pytest.raises(ValueError):
            j.append(99, "k", b"v", now=0.0)

    def test_entry_round_trips(self):
        e = JournalEntry(seq=3, time=1.5, op=OP_PUT, key="jis", value=b"rec")
        assert JournalEntry.from_bytes(e.to_bytes()) == e

    def test_default_epoch_distinguishes_generations(self):
        assert default_epoch(REALM, 0) != default_epoch(REALM, 1)
        assert default_epoch(REALM) != default_epoch("OTHER.REALM")


class TestDatabaseJournaling:
    @pytest.fixture
    def db(self):
        return KerberosDatabase(REALM, MasterKey.from_password("mk"))

    def test_every_mutation_is_journaled(self, db):
        start = db.journal.last_seq
        jis = Principal("jis", "", REALM)
        db.add_principal(jis, password="pw", now=1.0)
        db.change_key(jis, new_password="pw2", now=2.0)
        db.set_attributes(jis, 1, now=3.0)
        db.set_max_life(jis, 3600.0, now=4.0)
        db.delete_principal(jis, now=5.0)
        entries = db.journal.entries_since(start)
        assert [e.op for e in entries] == [OP_PUT] * 4 + [OP_DELETE]
        assert [e.time for e in entries] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(e.key == "jis" for e in entries)

    def test_journal_values_match_store(self, db):
        jis = Principal("jis", "", REALM)
        db.add_principal(jis, password="pw", now=1.0)
        entry = db.journal.entries_since(db.journal.last_seq - 1)[0]
        assert entry.value == db.store.get("jis")

    def test_replica_has_no_journal(self, db):
        assert db.replica().journal is None

    def test_replaying_entries_reproduces_the_master(self, db):
        slave = db.replica()
        slave.load_dump(db.dump())
        jis = Principal("jis", "", REALM)
        bcn = Principal("bcn", "", REALM)
        from_seq = slave.loaded_seq
        db.add_principal(jis, password="pw", now=1.0)
        db.add_principal(bcn, password="pw", now=2.0)
        db.delete_principal(jis, now=3.0)
        slave.apply_entries(db.journal.entries_since(from_seq))
        assert list(slave.store.items()) == list(db.store.items())
        assert slave.loaded_seq == db.journal.last_seq

    def test_dump_carries_journal_position(self, db):
        jis = Principal("jis", "", REALM)
        db.add_principal(jis, password="pw", now=1.0)
        slave = db.replica()
        slave.load_dump(db.dump(now=9.0))
        assert slave.loaded_epoch == db.journal.epoch
        assert slave.loaded_seq == db.journal.last_seq
