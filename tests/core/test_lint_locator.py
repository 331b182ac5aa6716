"""Discovery-plane lint: KDC addresses are runtime data.

One AST walk over ``src/repro``: no module outside ``repro/realm`` may
embed a literal KDC address (a dotted-quad string) — addresses are
answered by a :class:`~repro.core.locator.KdcLocator`, never constants.
The realm package is the one place that *assigns* addresses (bootstrap
owns the hosts), and ``repro/netsim`` is exempt as the address type's
home.
"""

import ast
from pathlib import Path

import pytest

pytestmark = pytest.mark.shard

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Packages allowed to hold dotted-quad literals (see module docstring).
ADDRESS_LITERAL_ALLOWED_PREFIXES = ("realm/", "netsim/")


def _is_dotted_quad(value) -> bool:
    if not isinstance(value, str):
        return False
    parts = value.split(".")
    return len(parts) == 4 and all(
        p.isdigit() and int(p) <= 255 for p in parts
    )


def _violations(path: Path):
    """(lineno, what) pairs for every address literal in one module."""
    rel = str(path.relative_to(SRC))
    if rel.startswith(ADDRESS_LITERAL_ALLOWED_PREFIXES):
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.lineno, f"KDC address literal {node.value!r}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and _is_dotted_quad(node.value)
    ]


def test_no_legacy_discovery_outside_the_shims():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    bad = {}
    for path in modules:
        lines = _violations(path)
        if lines:
            bad[str(path.relative_to(SRC))] = lines
    assert not bad, (
        "discovery must flow through KdcLocator "
        "(src lint, tests/examples are exempt):\n"
        + "\n".join(
            f"  {mod}:{line}: {what}"
            for mod, pairs in bad.items()
            for line, what in pairs
        )
    )


def test_lint_catches_planted_offenders():
    """A planted address literal is actually detected by the walk."""
    # Pose as a module outside every allowance.
    probe = SRC / "apps" / "_lint_probe_offender.py"
    try:
        probe.write_text("ADDR = '18.72.0.100'\nKDCS = ['18.72.0.1']\n")
        found = _violations(probe)
    finally:
        probe.unlink()
    assert [line for line, _what in found] == [1, 2]
    assert all("address literal" in what for _line, what in found)
