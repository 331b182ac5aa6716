"""Transfer front-door lint: one place verifies, one place seals.

:class:`repro.replication.TransferReceiver` is only *the* way into a
database if no daemon checks a master-key MAC on its own, and
``Kprop.seal`` only *the* way a transfer is made the master's if nothing
else computes one.  AST walks over ``src/repro``, in the style of
``test_lint_auth_front_door.py``:

* **one call site each** — ``verify_checksum(...)`` is called once, in
  ``replication/receiver.py``; ``.checksum(...)`` (the transfer MAC) is
  called once, in ``replication/kprop.py``;
* **every transfer port behind the base class** — a ``Service`` whose
  class body names ``KPROP_PORT`` or ``SHARD_PORT`` descends from
  ``TransferReceiver`` and overrides neither ``ports`` nor the verifying
  ``_handle``;
* **the sharding layer speaks no transfer framing** —
  ``realm/sharding.py`` imports neither ``decode_prop_message`` nor
  ``DeltaTransfer`` (nor ``encode_prop_message``): it hands bodies to
  its source shard's ``Kprop``.
"""

import ast

from repro.replication import Kpropd, RangeReceiver, TransferReceiver
from tests.obs.test_lint_auth_front_door import (
    _descendants,
    _modules,
    _parse,
)

GUARDED = {
    "verify_checksum": "replication/receiver.py",
    "checksum": "replication/kprop.py",
}
TRANSFER_PORTS = {"KPROP_PORT", "SHARD_PORT"}
FRONT_DOOR_METHODS = {"ports", "_handle"}
FRAMING = {"decode_prop_message", "encode_prop_message", "DeltaTransfer", "PropTransfer"}


def _guarded_calls(tree: ast.AST) -> list:
    return [
        (node.lineno, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in GUARDED
    ]


def _names_transfer_port(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id in TRANSFER_PORTS
        for node in ast.walk(cls)
    )


def _side_doors(trees) -> list:
    """Services on a transfer port that are not (untouched) receivers."""
    receivers = _descendants(trees, "TransferReceiver")
    family = {c.name for c in receivers}
    services = {c.name: c for c in _descendants(trees, "Service") + receivers}
    bad = []
    for cls in services.values():
        if not _names_transfer_port(cls):
            continue
        if cls.name not in family:
            bad.append(f"{cls.name} binds a transfer port outside TransferReceiver")
        bad += [
            f"{cls.name}.{node.name} overrides the front door"
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name in FRONT_DOOR_METHODS
        ]
    return bad


def _imports(tree: ast.AST) -> set:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_one_verify_site_and_one_mac_site():
    sites = {}
    for rel, tree in _modules().items():
        for line, name in _guarded_calls(tree):
            sites.setdefault(name, []).append(f"{rel}:{line}")
    assert set(sites) == set(GUARDED)
    for name, where in sites.items():
        assert len(where) == 1 and where[0].startswith(GUARDED[name] + ":"), (
            f".{name}(...) belongs in {GUARDED[name]} only, found at {where}"
        )


def test_every_transfer_port_is_behind_the_base_class():
    assert not _side_doors(_modules().values())
    for daemon in (Kpropd, RangeReceiver):
        assert issubclass(daemon, TransferReceiver)
        assert daemon._handle is TransferReceiver._handle
        assert daemon.ports is TransferReceiver.ports
    family = {c.name for c in _descendants(_modules().values(), "TransferReceiver")}
    assert family == {"Kpropd", "RangeReceiver"}


def test_sharding_speaks_no_transfer_framing():
    assert not _imports(_modules()["realm/sharding.py"]) & FRAMING


def test_lint_catches_a_side_door(tmp_path):
    planted = tmp_path / "side_door.py"
    planted.write_text(
        "from repro.core.service import Service\n"
        "from repro.netsim.ports import SHARD_PORT\n"
        "from repro.replication.messages import DeltaTransfer, decode_prop_message\n"
        "from repro.replication.receiver import TransferReceiver\n"
        "class Loader(Service):\n"
        "    def ports(self):\n"
        "        return {SHARD_PORT: self.load}\n"
        "    def load(self, d):\n"
        "        kind, t = decode_prop_message(d.payload)\n"
        "        if self.db.master_key.verify_checksum(t.body, t.checksum):\n"
        "            return self.db.master_key.checksum(t.body)\n"
        "class Trusting(TransferReceiver):\n"
        "    def __init__(self, db, port=SHARD_PORT):\n"
        "        super().__init__(db, port)\n"
        "    def _handle(self, d):\n"
        "        return self.apply_delta(d.payload)\n"
    )
    tree = _parse(planted)
    assert {name for _, name in _guarded_calls(tree)} == set(GUARDED)
    assert _side_doors([tree]) == [
        "Loader binds a transfer port outside TransferReceiver",
        "Loader.ports overrides the front door",
        "Trusting._handle overrides the front door",
    ]
    assert _imports(tree) & FRAMING == {"DeltaTransfer", "decode_prop_message"}
