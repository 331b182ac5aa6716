"""Record store tests: interface contract for both implementations."""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.database import FileStore, MemoryStore, SqliteStore
from repro.database.store import StoreError


@pytest.fixture(params=["memory", "file", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    if request.param == "sqlite":
        return SqliteStore(":memory:")
    return FileStore(str(tmp_path / "kdb"))


class TestStoreContract:
    def test_get_missing(self, store):
        assert store.get("nobody") is None

    def test_put_get(self, store):
        store.put("jis", b"record-bytes")
        assert store.get("jis") == b"record-bytes"

    def test_put_replaces(self, store):
        store.put("jis", b"v1")
        store.put("jis", b"v2")
        assert store.get("jis") == b"v2"

    def test_delete(self, store):
        store.put("jis", b"v")
        assert store.delete("jis") is True
        assert store.get("jis") is None
        assert store.delete("jis") is False

    def test_len_and_contains(self, store):
        assert len(store) == 0
        store.put("a", b"1")
        store.put("b", b"2")
        assert len(store) == 2
        assert "a" in store
        assert "z" not in store

    def test_items_sorted(self, store):
        for key in ("zeta", "alpha", "mid"):
            store.put(key, key.encode())
        assert [k for k, _ in store.items()] == ["alpha", "mid", "zeta"]

    def test_keys(self, store):
        store.put("b", b"")
        store.put("a", b"")
        assert store.keys() == ["a", "b"]

    def test_clear(self, store):
        store.put("a", b"1")
        store.clear()
        assert len(store) == 0

    def test_type_checks(self, store):
        with pytest.raises(TypeError):
            store.put(b"bytes-key", b"v")
        with pytest.raises(TypeError):
            store.put("k", "string-value")

    def test_accepts_bytearray_value(self, store):
        store.put("k", bytearray(b"xyz"))
        assert store.get("k") == b"xyz"

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=20), st.binary(max_size=50), max_size=20
        )
    )
    @settings(max_examples=20)
    def test_contents_match_model(self, contents):
        store = MemoryStore()
        for k, v in contents.items():
            store.put(k, v)
        assert dict(store.items()) == contents


class TestFileStorePersistence:
    def test_reopen_preserves_data(self, tmp_path):
        path = str(tmp_path / "kdb")
        store = FileStore(path)
        store.put("jis", b"record")
        store.put("bcn", b"other")
        store.delete("bcn")
        reopened = FileStore(path)
        assert reopened.get("jis") == b"record"
        assert reopened.get("bcn") is None
        assert len(reopened) == 1

    def test_reopen_after_clear(self, tmp_path):
        path = str(tmp_path / "kdb")
        store = FileStore(path)
        store.put("a", b"1")
        store.clear()
        assert len(FileStore(path)) == 0

    def test_compact_preserves_live_data(self, tmp_path):
        import os

        path = str(tmp_path / "kdb")
        store = FileStore(path)
        for i in range(50):
            store.put("churn", f"v{i}".encode())
        size_before = os.path.getsize(path)
        store.compact()
        size_after = os.path.getsize(path)
        assert size_after < size_before
        assert FileStore(path).get("churn") == b"v49"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "notakdb"
        path.write_bytes(b"GARBAGE FILE")
        with pytest.raises(StoreError):
            FileStore(str(path))

    def test_corrupt_opcode_rejected(self, tmp_path):
        path = tmp_path / "kdb"
        path.write_bytes(b"KDB1" + b"\xff")
        with pytest.raises(StoreError):
            FileStore(str(path))

    def test_interchangeable_with_memory(self, tmp_path):
        """The paper's replaceable-module claim: same behaviour either way."""
        ops = [("put", "a", b"1"), ("put", "b", b"2"), ("delete", "a", None)]
        mem, fil = MemoryStore(), FileStore(str(tmp_path / "kdb"))
        for store in (mem, fil):
            for op, key, value in ops:
                if op == "put":
                    store.put(key, value)
                else:
                    store.delete(key)
        assert list(mem.items()) == list(fil.items())


class TestSqliteStorePersistence:
    def test_reopen_preserves_data(self, tmp_path):
        path = str(tmp_path / "kdb.sqlite")
        store = SqliteStore(path)
        store.put("jis", b"record")
        store.delete("jis")
        store.put("bcn", b"kept")
        store.close()
        reopened = SqliteStore(path)
        assert reopened.get("bcn") == b"kept"
        assert reopened.get("jis") is None

    def test_realm_runs_on_sqlite(self, tmp_path):
        """The whole KDC stack on a relational backend — the paper's
        INGRES configuration, modernized."""
        from repro.crypto import KeyGenerator
        from repro.database.admin_tools import kdb_init

        gen = KeyGenerator(seed=b"sqlite-realm")
        db = kdb_init(
            "ATHENA.MIT.EDU", "mpw", gen,
            store=SqliteStore(str(tmp_path / "realm.sqlite")),
        )
        from repro.principal import Principal

        db.add_principal(Principal("jis", "", "ATHENA.MIT.EDU"), password="pw")
        from repro.core import KerberosClient, KerberosServer, StaticLocator
        from repro.netsim import Network

        net = Network()
        kdc_host = net.add_host("kerberos")
        KerberosServer(db, gen.fork(b"kdc")).attach(kdc_host)
        ws = net.add_host("ws")
        client = KerberosClient(
            ws, "ATHENA.MIT.EDU", StaticLocator([kdc_host.address])
        )
        assert client.kinit("jis", "pw") is not None


class TestSqliteLoadsOnUse:
    """Only a store that asks for ``sqlite3`` loads it."""

    def run(self, code):
        src = Path(__file__).resolve().parents[2] / "src"
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True, env={"PYTHONPATH": str(src)},
        ).stdout.split()

    def test_importing_the_package_leaves_sqlite3_unloaded(self):
        assert self.run(
            "import sys, repro, repro.database, repro.realm; "
            "print('sqlite3' in sys.modules)"
        ) == ["False"]

    def test_sqlite_store_loads_it_on_first_use(self):
        assert self.run(
            "import sys, repro.database as d; "
            "print('SqliteStore' in d.__all__, 'sqlite3' in sys.modules); "
            "from repro.database import SqliteStore; "
            "print(SqliteStore.__name__, 'sqlite3' in sys.modules)"
        ) == ["True", "False", "SqliteStore", "True"]
