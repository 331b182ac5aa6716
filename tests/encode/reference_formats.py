"""The five formats once written field by field, kept as the rows' oracle.

The hand-written dump, kprop envelope, srvtab, store log and preauth
functions the ``WireStruct`` rows replaced, moved from ``src/`` with what
they read off a database or a file made an argument.  They use
``primitives.py`` and the walker, never generated code; never edit this
file together with the rows (``test_formats.py`` holds them to it).
"""

from repro.crypto import IntegrityError, seal, unseal
from repro.database.admin_tools import _SRVTAB_MAGIC
from repro.database.db import _DUMP_MAGIC, DatabaseError
from repro.database.store import _MAGIC, StoreError
from repro.encode import DecodeError
from repro.principal import Principal
from repro.replication.messages import DeltaTransfer, PropKind, PropTransfer

from tests.encode.primitives import Decoder, Encoder
from tests.encode.reference_codec import decode_from, encode_into

_OP_PUT = 1
_OP_DELETE = 2


def dump(realm, now, position, entries):
    enc = Encoder()
    enc.raw(_DUMP_MAGIC)
    enc.string(realm)
    enc.f64(now)
    epoch, seq = position
    enc.u64(epoch).u64(seq)
    enc.u32(len(entries))
    for key, value in entries:
        enc.string(key)
        enc.bytes_(value)
    return enc.getvalue()


def _dump_header(dec):
    if dec.raw(len(_DUMP_MAGIC)) != _DUMP_MAGIC:
        raise DatabaseError("not a Kerberos database dump")
    return dec.string(), dec.f64(), dec.u64(), dec.u64()


def load_dump(data):
    """``(realm, time, epoch, seq, entries)``; the realm check that
    followed the header is the database's, not the format's."""
    dec = Decoder(data)
    try:
        realm, dump_time, epoch, seq = _dump_header(dec)
        count = dec.u32()
        entries = [(dec.string(), dec.bytes_()) for _ in range(count)]
        dec.expect_eof()
    except DecodeError as exc:
        raise DatabaseError(f"corrupt dump: {exc}") from exc
    return realm, dump_time, epoch, seq, entries


def encode_prop_message(kind, message):
    enc = Encoder()
    enc.u8(int(kind))
    encode_into(message, enc)
    return enc.getvalue()


def decode_prop_message(data):
    try:
        dec = Decoder(data)
        kind = PropKind(dec.u8())
        cls = PropTransfer if kind == PropKind.FULL else DeltaTransfer
        message = decode_from(cls, dec)
        dec.expect_eof()
        return kind, message
    except DecodeError:
        raise
    except ValueError as exc:
        raise DecodeError(f"undecodable propagation transfer: {exc}") from exc


def ext_srvtab(realm, rows):
    """Srvtab bytes for ``(service, kvno, key bytes)`` rows of ``realm``."""
    enc = Encoder()
    enc.raw(_SRVTAB_MAGIC)
    enc.u32(len(rows))
    for service, kvno, key in rows:
        enc.string(service.name)
        enc.string(service.instance)
        enc.string(realm)
        enc.u32(kvno)
        enc.bytes_(key)
    return enc.getvalue()


def parse_srvtab(data):
    dec = Decoder(data)
    if dec.raw(len(_SRVTAB_MAGIC)) != _SRVTAB_MAGIC:
        raise ValueError("not a srvtab file")
    count = dec.u32()
    rows = []
    for _ in range(count):
        name = dec.string()
        instance = dec.string()
        realm = dec.string()
        version = dec.u32()
        key = dec.bytes_()
        rows.append((Principal(name, instance, realm), version, key))
    dec.expect_eof()
    return rows


def store_log(records):
    """A new store's file after appending ``(op, key, value)`` records."""
    out = _MAGIC
    for op, key, value in records:
        enc = Encoder()
        enc.u8(op).string(key)
        if op == _OP_PUT:
            enc.bytes_(value)
        out += enc.getvalue()
    return out


def replay(raw, path):
    """The records a store file at ``path`` holding ``raw`` opens with."""
    data = {}
    if raw[:4] != _MAGIC:
        raise StoreError(f"{path} is not a Kerberos store file")
    dec = Decoder(raw[4:])
    try:
        while not dec.eof():
            op = dec.u8()
            key = dec.string()
            if op == _OP_PUT:
                data[key] = dec.bytes_()
            elif op == _OP_DELETE:
                data.pop(key, None)
            else:
                raise StoreError(f"corrupt log opcode {op} in {path}")
    except DecodeError as exc:
        raise StoreError(f"corrupt store file {path}: {exc}") from exc
    return data


def build_preauth(client_key, timestamp):
    enc = Encoder()
    enc.f64(timestamp)
    return seal(client_key, enc.getvalue())


def verify_preauth(blob, client_key, timestamp):
    try:
        dec = Decoder(unseal(client_key, blob))
        sealed_time = dec.f64()
        dec.expect_eof()
    except (IntegrityError, DecodeError):
        return False
    return sealed_time == timestamp
