"""Wire format of database propagation (paper Figure 13, plus deltas).

Two transfer kinds ride the kprop port behind a one-byte envelope:

* **full** (:class:`PropTransfer`) — the paper's Figure 13 transfer: a
  master-key checksum followed by the entire dump;
* **delta** (:class:`DeltaTransfer`) — the incremental extension: the
  journal entries between the slave's position and the master's, under
  the same master-key checksum discipline ("it is essential that only
  information from the master host be accepted by the slaves, and that
  tampering of data be detected" — the requirement is unchanged, only
  the payload shrank).
"""

from __future__ import annotations

import enum
from typing import Tuple, Union

from repro.database.journal import JournalEntry
from repro.encode import DecodeError, WireStruct, field


class PropKind(enum.IntEnum):
    """The envelope byte in front of every kprop transfer."""

    FULL = 1
    DELTA = 2


class PropTransfer(WireStruct):
    """kprop -> kpropd: the MAC comes first ("First kprop sends a
    checksum of the new database it is about to send"), then the dump.

    The dump itself needs no further encryption: "All passwords in the
    Kerberos database are encrypted in the master database key.
    Therefore, the information passed from master to slave over the
    network is not useful to an eavesdropper."  The keyed checksum is
    what guarantees "that only information from the master host be
    accepted by the slaves, and that tampering of data be detected".
    """

    FIELDS = (
        field("checksum", "bytes"),
        field("dump", "bytes"),
    )


class PropReply(WireStruct):
    """kpropd -> kprop: outcome of a full-dump update.

    ``applied_time`` is the slave's clock when it applied the update (0
    on rejection) — the master's ``repl.slave_lag_seconds`` gauge is
    computed from the slave's own report, so master and slave agree on
    one staleness definition.
    """

    FIELDS = (
        field("ok", "bool"),
        field("records", "u32"),
        field("applied_time", "f64"),
        field("text", "string"),
    )


class DeltaBody(WireStruct):
    """The checksummed payload of a delta transfer.

    ``from_seq`` is the position the slave must currently hold (its
    applied high-water mark); ``entries`` carry the journal records
    ``(from_seq, to_seq]`` in order.  An empty entry list is a valid
    heartbeat: it confirms the slave is current as of the master's clock.
    """

    FIELDS = (
        field("epoch", "u64"),
        field("from_seq", "u64"),
        field("to_seq", "u64"),
        field("time", "f64"),
        field("entries", ("list", JournalEntry)),
    )


class DeltaTransfer(WireStruct):
    """kprop -> kpropd: master-key MAC over the encoded body, then the
    body — the same shape as the Figure 13 full transfer."""

    FIELDS = (
        field("checksum", "bytes"),
        field("body", "bytes"),
    )


class DeltaStatus(enum.IntEnum):
    OK = 0
    #: The slave cannot apply this delta (gap, epoch mismatch, crash
    #: restart, never initialized) and asks for a full dump instead.
    NEED_FULL = 1
    #: The transfer failed verification (tampering / imposter master).
    REJECTED = 2


class DeltaReply(WireStruct):
    """kpropd -> kprop: outcome of a delta update."""

    FIELDS = (
        field("status", "u8"),
        field("applied_seq", "u64"),
        field("applied_time", "f64"),
        field("text", "string"),
    )


def encode_prop_message(
    kind: PropKind, message: Union[PropTransfer, DeltaTransfer]
) -> bytes:
    """Wrap a transfer in the one-byte kind envelope."""
    expected = PropTransfer if kind == PropKind.FULL else DeltaTransfer
    if type(message) is not expected:
        raise TypeError(
            f"{PropKind(kind).name} carries {expected.__name__}, "
            f"got {type(message).__name__}"
        )
    return bytes((kind,)) + message.to_bytes()


def decode_prop_message(
    data: bytes,
) -> Tuple[PropKind, Union[PropTransfer, DeltaTransfer]]:
    """Parse an enveloped transfer; raises :class:`DecodeError` on any
    malformed input (never ``struct.error``/``IndexError``)."""
    if not data:
        raise DecodeError("short read: wanted 1 bytes, 0 remain")
    try:
        kind = PropKind(data[0])
    except ValueError as exc:
        raise DecodeError(f"undecodable propagation transfer: {exc}") from exc
    cls = PropTransfer if kind == PropKind.FULL else DeltaTransfer
    return kind, cls.from_bytes(data, 1)
