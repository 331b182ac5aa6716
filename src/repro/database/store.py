"""Replaceable record storage underneath the Kerberos database.

Paper, Section 2.2: *"Another replaceable module is the database
management system.  The current Athena implementation of the database
library uses ndbm, although INGRES was originally used."*

The replaceable boundary is :class:`RecordStore`: string keys to byte
values with iteration.  Two implementations are provided — an in-memory
dict (the default for simulations) and an ndbm-flavoured file store that
persists every mutation to an append-only log and compacts on demand.
"""

from __future__ import annotations

import abc
import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.encode import DecodeError, WireStruct, field


class StoreError(Exception):
    """Raised when the storage layer itself fails (corrupt file, etc.)."""


class RecordStore(abc.ABC):
    """Key/value records: the interface the database library builds on."""

    @abc.abstractmethod
    def get(self, key: str) -> Optional[bytes]:
        """Return the value for ``key``, or None when absent."""

    @abc.abstractmethod
    def put(self, key: str, value: bytes) -> None:
        """Insert or replace the value for ``key``."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; return True if it existed."""

    @abc.abstractmethod
    def items(self) -> Iterator[Tuple[str, bytes]]:
        """Iterate (key, value) pairs in sorted key order."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Remove every record (used when a slave loads a new dump)."""

    def keys(self) -> List[str]:
        return [k for k, _ in self.items()]

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    @abc.abstractmethod
    def __len__(self) -> int:
        ...


class MemoryStore(RecordStore):
    """Dict-backed store, the workhorse for simulated realms."""

    def __init__(self) -> None:
        self._data: Dict[str, bytes] = {}

    def get(self, key: str) -> Optional[bytes]:
        return self._data.get(key)

    def put(self, key: str, value: bytes) -> None:
        if not isinstance(key, str):
            raise TypeError(f"key must be str, got {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"value must be bytes, got {type(value).__name__}")
        self._data[key] = bytes(value)

    def delete(self, key: str) -> bool:
        return self._data.pop(key, None) is not None

    def items(self) -> Iterator[Tuple[str, bytes]]:
        for key in sorted(self._data):
            yield key, self._data[key]

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class LogPut(WireStruct):
    """A file store's log record that sets ``key``."""

    OP = 1
    FIELDS = (field("key", "string"), field("value", "bytes"))


class LogDelete(WireStruct):
    """A file store's log record that drops ``key``."""

    OP = 2
    FIELDS = (field("key", "string"),)


#: Each log record is its row's ``OP`` byte, then the row.
_LOG_ROWS = {row.OP: row for row in (LogPut, LogDelete)}
_MAGIC = b"KDB1"


class FileStore(RecordStore):
    """File-backed store in the spirit of ndbm.

    Mutations append op-tagged :class:`LogPut`/:class:`LogDelete` records
    to a log file; opening replays the log.  :meth:`compact` rewrites the
    file to contain only live records.  The format is deliberately
    simple — the point is that the database library above cannot tell
    this store from the in-memory one, demonstrating the paper's
    replaceability claim.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._data: Dict[str, bytes] = {}
        if os.path.exists(self.path):
            self._replay()
        else:
            with open(self.path, "wb") as f:
                f.write(_MAGIC)

    def _replay(self) -> None:
        with open(self.path, "rb") as f:
            raw = f.read()
        if raw[:4] != _MAGIC:
            raise StoreError(f"{self.path} is not a Kerberos store file")
        pos = len(_MAGIC)
        try:
            while pos < len(raw):
                row = _LOG_ROWS.get(raw[pos])
                if row is None:
                    raise StoreError(
                        f"corrupt log opcode {raw[pos]} in {self.path}"
                    )
                record, pos = row.read_at(raw, pos + 1)
                if row is LogPut:
                    self._data[record.key] = record.value
                else:
                    self._data.pop(record.key, None)
        except DecodeError as exc:
            raise StoreError(f"corrupt store file {self.path}: {exc}") from exc

    def _append(self, record: WireStruct) -> None:
        wire = bytes((record.OP,)) + record.to_bytes()
        with open(self.path, "ab") as f:
            f.write(wire)

    def get(self, key: str) -> Optional[bytes]:
        return self._data.get(key)

    def put(self, key: str, value: bytes) -> None:
        if not isinstance(key, str):
            raise TypeError(f"key must be str, got {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"value must be bytes, got {type(value).__name__}")
        value = bytes(value)
        self._data[key] = value
        self._append(LogPut(key=key, value=value))

    def delete(self, key: str) -> bool:
        existed = self._data.pop(key, None) is not None
        if existed:
            self._append(LogDelete(key=key))
        return existed

    def items(self) -> Iterator[Tuple[str, bytes]]:
        for key in sorted(self._data):
            yield key, self._data[key]

    def clear(self) -> None:
        self._data.clear()
        with open(self.path, "wb") as f:
            f.write(_MAGIC)

    def compact(self) -> None:
        """Rewrite the log with only live records."""
        log = b"".join(
            bytes((LogPut.OP,)) + LogPut(key=k, value=v).to_bytes()
            for k, v in self.items()
        )
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(_MAGIC + log)
        os.replace(tmp, self.path)

    def __len__(self) -> int:
        return len(self._data)
