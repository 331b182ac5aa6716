"""Front-door lint: one place authenticates, one place forgets.

:class:`repro.core.applib.AuthenticatedService` is only *the* front door
if nothing walks around it.  Three AST walks over ``src/repro`` keep it
honest:

* **one call site** — ``krb_rd_req(...)`` is called, and
  ``ReplayCache(...)`` constructed, exactly once each, in
  ``core/applib.py``.  ``repro/threat/`` (an attacker runs whatever it
  likes) and the ``__main__`` demo (the library functions shown bare)
  are exempt.  ``ReplayCache.bind_audit`` — the late-wiring a cache built
  in a constructor needed — stays gone;
* **no hand-wired observability** — ``Service.attach`` sets
  ``metrics``/``tracer``/``audit``; no ``Service`` subclass reads them
  off ``host.network`` itself;
* **one crash model** — a subclass of ``AuthenticatedService`` that
  overrides ``on_attach``/``on_crash``/``on_restart`` calls the
  ``super()`` hook, so what it adds is *its own* volatile state and the
  replay handling is always the inherited one.
"""

import ast
import functools
from pathlib import Path

from repro.apps.kerberized import KerberizedServer
from repro.apps.nfs import MountDaemon, NfsServer
from repro.core import KerberosServer
from repro.core.applib import AuthenticatedService
from repro.kdbm.server import KdbmServer

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

FRONT_DOOR = "core/applib.py"
GUARDED_CALLS = {"krb_rd_req", "ReplayCache"}
EXEMPT_PREFIXES = ("threat/",)
EXEMPT_FILES = {"__main__.py"}

OBS_HANDLES = {"metrics", "tracer", "audit"}
LIFECYCLE_HOOKS = {"on_attach", "on_crash", "on_restart"}


def _relative(path: Path) -> str:
    return str(path.relative_to(SRC)).replace("\\", "/")


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _name(node: ast.AST):
    """``x`` for ``x`` and for ``anything.x``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _guarded_calls(tree: ast.AST) -> list:
    return [
        (node.lineno, _name(node.func))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _name(node.func) in GUARDED_CALLS
    ]


def _descendants(trees, root: str) -> list:
    """Every ClassDef in ``trees`` that inherits, by name, from ``root``
    — directly or through other classes defined in ``trees``."""
    classes = [n for t in trees for n in ast.walk(t) if isinstance(n, ast.ClassDef)]
    family, grew = {root}, True
    while grew:
        grew = False
        for cls in classes:
            if cls.name not in family and {_name(b) for b in cls.bases} & family:
                family.add(cls.name)
                grew = True
    return [cls for cls in classes if cls.name in family - {root}]


def _reads_network_obs(cls: ast.ClassDef) -> list:
    return [
        (node.lineno, f".network.{node.attr}")
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and node.attr in OBS_HANDLES
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "network"
    ]


def _hooks_without_super(cls: ast.ClassDef) -> list:
    found = []
    for node in cls.body:
        if not isinstance(node, ast.FunctionDef) or node.name not in LIFECYCLE_HOOKS:
            continue
        calls_super = any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == node.name
            and isinstance(call.func.value, ast.Call)
            and _name(call.func.value.func) == "super"
            for call in ast.walk(node)
        )
        if not calls_super:
            found.append((node.lineno, f"{cls.name}.{node.name} skips super()"))
    return found


@functools.lru_cache(maxsize=None)
def _modules():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    return {_relative(p): _parse(p) for p in modules}


def test_one_krb_rd_req_call_and_one_replay_cache_construction():
    sites = {}
    for rel, tree in _modules().items():
        if rel in EXEMPT_FILES or rel.startswith(EXEMPT_PREFIXES):
            continue
        for line, name in _guarded_calls(tree):
            sites.setdefault(name, []).append(f"{rel}:{line}")
    assert set(sites) == GUARDED_CALLS
    for name, where in sites.items():
        assert len(where) == 1 and where[0].startswith(FRONT_DOOR + ":"), (
            f"{name}(...) belongs in AuthenticatedService only, found at {where}"
        )


def test_bind_audit_stays_gone():
    for path in SRC.rglob("*.py"):
        assert "bind_audit" not in path.read_text(encoding="utf-8"), path


def test_no_service_subclass_wires_its_own_observability():
    trees = _modules()
    bad = [
        f"{cls.name}:{line}: {what}"
        for cls in _descendants(trees.values(), "Service")
        for line, what in _reads_network_obs(cls)
    ]
    assert not bad, (
        "Service.attach already set self.metrics/tracer/audit:\n  "
        + "\n  ".join(bad)
    )


def test_every_ticket_taking_daemon_inherits_the_one_crash_model():
    for daemon in (KerberizedServer, KdbmServer, MountDaemon, NfsServer, KerberosServer):
        assert issubclass(daemon, AuthenticatedService), daemon
    trees = _modules()
    family = _descendants(trees.values(), "AuthenticatedService")
    assert {"KerberizedServer", "KdbmServer", "MountDaemon", "NfsServer",
            "KerberosServer", "RloginServer"} <= {cls.name for cls in family}
    bad = [what for cls in family for _line, what in _hooks_without_super(cls)]
    assert not bad, bad


def test_lint_catches_a_side_door(tmp_path):
    planted = tmp_path / "side_door.py"
    planted.write_text(
        "from repro.core.applib import krb_rd_req\n"
        "from repro.core.replay import ReplayCache\n"
        "from repro.core.service import Service\n"
        "class Side(Service):\n"
        "    def on_attach(self):\n"
        "        self.audit = self.host.network.audit\n"
        "        self.cache = ReplayCache()\n"
        "    def handle(self, d):\n"
        "        return krb_rd_req(d, None, None, d.src, 0.0, self.cache)\n"
    )
    tree = _parse(planted)
    assert {name for _, name in _guarded_calls(tree)} == GUARDED_CALLS
    (side,) = _descendants([tree], "Service")
    assert [what for _, what in _reads_network_obs(side)] == [".network.audit"]


def test_lint_catches_a_private_crash_model(tmp_path):
    planted = tmp_path / "forgetful.py"
    planted.write_text(
        "from repro.core.applib import AuthenticatedService\n"
        "class Keeps(AuthenticatedService):\n"
        "    def on_crash(self):\n"
        "        self.sessions.clear()\n"
        "class Polite(Keeps):\n"
        "    def on_crash(self):\n"
        "        super().on_crash()\n"
        "        self.extra.clear()\n"
    )
    family = _descendants([_parse(planted)], "AuthenticatedService")
    assert [cls.name for cls in family] == ["Keeps", "Polite"]
    bad = [what for cls in family for _, what in _hooks_without_super(cls)]
    assert bad == ["Keeps.on_crash skips super()"]
