"""The package's API self-check.

Later changes delete the program's one-release shims and may not edit
this benchmark, so the benchmark must already stand on public,
non-deprecated entry points only.  This walks the package's own source
and refuses to run if it finds

* access to a ``_private`` attribute of anything but ``self``/``cls``;
* a name or keyword from the shim list (``net.stats``, ``n_slaves=``,
  ``set_kdcs``, the shard-0 ``realm.kdc``/``.db``/``.slaves``
  accessors, ``_serve`` ...);
* an import of ``benchmarks.bench_util`` or ``repro.workload``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

PACKAGE_DIR = Path(__file__).resolve().parent

BANNED_NAMES = {
    "set_kdcs", "set_kdc_list", "publish_kdcs", "count_deprecated",
    "_serve", "_serve_batch",
}
BANNED_KEYWORDS = {"n_slaves", "kdc_addresses", "kdc_directory", "retries"}
BANNED_MODULES = ("benchmarks.bench_util", "repro.workload")
#: Shard-0 shorthands on a Realm; reach them through ``realm.shards[0]``.
REALM_SHORTHANDS = {"kdc", "db", "kdbm", "kprop", "slaves", "master_host"}


def _is_realm(node: ast.AST) -> bool:
    name = (
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else ""
    )
    return name == "realm"


def violations_in(source: str, filename: str) -> List[str]:
    found: List[str] = []

    def flag(node: ast.AST, what: str) -> None:
        found.append(f"{filename}:{node.lineno}: {what}")

    tree = ast.parse(source, filename)
    called = {
        id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attr = node.attr
            owner = node.value
            own = isinstance(owner, ast.Name) and owner.id in ("self", "cls")
            dunder = attr.startswith("__") and attr.endswith("__")
            if attr.startswith("_") and not dunder and not own:
                flag(node, f"private attribute .{attr}")
            if attr in BANNED_NAMES:
                flag(node, f"deprecated or private entry point .{attr}")
            if attr in REALM_SHORTHANDS and _is_realm(owner):
                flag(node, f"shard-0 shorthand realm.{attr}")
            # keycache.stats() is the cache's public report; ``net.stats``
            # is the legacy dict facade over the registry.
            if attr == "stats" and id(node) not in called:
                flag(node, "legacy .stats mapping (use net.metrics)")
        elif isinstance(node, ast.Name) and node.id in BANNED_NAMES:
            flag(node, f"deprecated or private entry point {node.id}")
        elif isinstance(node, ast.keyword) and node.arg in BANNED_KEYWORDS:
            flag(node.value, f"deprecated keyword {node.arg}=")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            for module in modules:
                if module.startswith(BANNED_MODULES):
                    flag(node, f"import of {module}")
    return found


def check() -> None:
    """Raise if any file of this package breaks the rules."""
    found: List[str] = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found.extend(violations_in(path.read_text(encoding="utf-8"), path.name))
    if found:
        raise RuntimeError(
            "benchmarks/ledger uses non-public or deprecated API:\n  "
            + "\n  ".join(found)
        )
