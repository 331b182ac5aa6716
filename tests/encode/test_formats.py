"""The five formats once written by hand are rows: their bytes equal the
oracle's (``reference_formats.py``), and reading them, cut or bit-flipped,
ends the same — same value, or refusal of the same class and text — bar
three refusals that move earlier, class kept or widened to its base: a
wire shorter than its magic, a list count past the end of the wire, and
a log's unknown op byte (before its key)."""

import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import build_preauth, verify_preauth
from repro.crypto import string_to_key
from repro.database.admin_tools import _SRVTAB_MAGIC, Srvtab, parse_srvtab
from repro.database.db import _DUMP_MAGIC, Dump, KerberosDatabase
from repro.database.store import FileStore, LogDelete, LogPut
from repro.replication import messages as prop

from tests.encode import reference_formats as old
from tests.encode.reference_codec import flip_bit, plain
from tests.encode.test_all_wire_structs import instance_of

KEY = string_to_key("preauth-pw")
MOVED = re.compile("list count|corrupt log opcode")
_DIR = tempfile.TemporaryDirectory()
STORE = os.path.join(_DIR.name, "kdb")


def _dump(d):
    return d.realm, d.time, d.epoch, d.seq, [(e.key, e.value) for e in d.entries]


def _kind(t):
    return prop.PropKind.FULL if type(t) is prop.PropTransfer else prop.PropKind.DELTA


def _store(raw, log=None):
    """The store file holding ``raw`` after ``log`` is appended: its
    bytes, or the records it opens with."""
    with open(STORE, "wb") as f:
        f.write(raw)
    store = FileStore(STORE)
    for record in log or ():
        store._append(record)
    with open(STORE, "rb") as f:
        return f.read() if log is not None else sorted(store.items())


#: name: (contents, old write, new write, old read, new read, magic).
FORMATS = {
    "dump": (
        instance_of(Dump), lambda d: old.dump(d.realm, d.time, (d.epoch, d.seq), _dump(d)[4]),
        lambda d: _DUMP_MAGIC + d.to_bytes(),
        lambda w, _: old.load_dump(w), lambda w, _: _dump(KerberosDatabase.read_dump(w)),
        _DUMP_MAGIC,
    ),
    "kprop": (
        st.one_of(instance_of(prop.PropTransfer), instance_of(prop.DeltaTransfer)),
        lambda t: old.encode_prop_message(_kind(t), t),
        lambda t: prop.encode_prop_message(_kind(t), t),
        lambda w, _: old.decode_prop_message(w), lambda w, _: prop.decode_prop_message(w), b"",
    ),
    "srvtab": (
        st.builds(lambda realm, tab: [e.replace(service=e.service.with_realm(realm))
                                      for e in tab.entries],
                  st.sampled_from(["", "ATHENA.MIT.EDU"]), instance_of(Srvtab)),
        lambda rows: old.ext_srvtab(rows[0].service.realm if rows else "",
                                    [(e.service, e.kvno, e.key) for e in rows]),
        lambda rows: _SRVTAB_MAGIC + Srvtab(entries=rows).to_bytes(),
        lambda w, _: old.parse_srvtab(w), lambda w, _: parse_srvtab(w), _SRVTAB_MAGIC,
    ),
    "store": (
        st.lists(st.one_of(instance_of(LogPut), instance_of(LogDelete)), max_size=6),
        lambda log: old.store_log([(r.OP, r.key, getattr(r, "value", b"")) for r in log]),
        lambda log: _store(b"KDB1", log),
        lambda w, _: sorted(old.replay(w, STORE).items()), lambda w, _: _store(w), b"",
    ),
    "preauth": (
        st.floats(allow_nan=False),
        lambda t: old.build_preauth(KEY, t), lambda t: build_preauth(KEY, t),
        lambda w, t: old.verify_preauth(w, KEY, t), lambda w, t: verify_preauth(w, KEY, t), b"",
    ),
}


def _outcome(read, wire, content):
    try:
        return "ok", plain(read(wire, content))
    except Exception as exc:  # both sides' refusals are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(FORMATS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_row_matches_the_hand_written_format(name, data):
    contents, write_old, write_new, read_old, read_new, magic = FORMATS[name]
    content = data.draw(contents)
    wire = write_old(content)
    assert write_new(content) == wire
    damaged = [wire] + [wire[:cut] for cut in range(0, len(wire), 7)] + [
        flip_bit(wire, data.draw(st.integers(0, len(wire) * 8 - 1))) for _ in range(4)]
    for bad in damaged:
        was, now = _outcome(read_old, bad, content), _outcome(read_new, bad, content)
        if now[0] != "ok" and (len(bad) < len(magic) or MOVED.search(now[1])):
            assert was[0] != "ok" and issubclass(was[0], now[0]), (was, now)
        else:
            assert now == was, bad.hex()
