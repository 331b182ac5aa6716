"""Realm-shape lint: every realm is a ring of one or more shards.

``Realm.ring`` and each shard's ``membership`` and ``receiver`` exist
whatever the shard count, so code that asks whether they do is code for
a second realm shape that no longer exists.  An AST walk over
``src/repro``, in the style of ``test_lint_transfer_front_door.py``:

* **no shape test** — no ``is None`` / ``is not None`` comparison on an
  attribute named ``ring``, ``membership``, ``receiver`` or
  ``directory`` (the deleted copy of ``Realm.shard_addresses``).
"""

import ast

from tests.obs.test_lint_auth_front_door import _modules, _parse

SHAPE_ATTRS = {"ring", "membership", "receiver", "directory"}


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _shape_tests(tree: ast.AST) -> list:
    """``(line, attr)`` of every ``x.attr is [not] None`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Is, ast.IsNot)):
                continue
            for side, other in ((left, right), (right, left)):
                if (
                    isinstance(side, ast.Attribute)
                    and side.attr in SHAPE_ATTRS
                    and _is_none(other)
                ):
                    found.append((node.lineno, side.attr))
    return found


def test_no_code_asks_whether_the_realm_has_a_ring():
    offenders = [
        f"{rel}:{line}: .{attr} compared with None"
        for rel, tree in _modules().items()
        for line, attr in _shape_tests(tree)
    ]
    assert not offenders, offenders


def test_lint_catches_a_shape_test(tmp_path):
    planted = tmp_path / "two_shapes.py"
    planted.write_text(
        "def route(realm, site, key):\n"
        "    if realm.ring is None:\n"
        "        return 0\n"
        "    if site.membership is not None and None is not site.receiver:\n"
        "        return realm.ring.shard_for(key)\n"
        "    assert realm.directory is None\n"
        "    ring = None\n"
        "    return ring is None or site.kdc.shard is None\n"
    )
    assert sorted(_shape_tests(_parse(planted))) == [
        (2, "ring"), (4, "membership"), (4, "receiver"), (6, "directory"),
    ]
