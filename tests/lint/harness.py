"""The lint harness: a rule is a frozen row, every file is parsed once.

Paths are repo-relative with ``/``; scope patterns are :mod:`fnmatch`
patterns, so ``*`` crosses directories.
"""

import ast
import functools
import importlib
import re
from collections import Counter
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Callable, Iterable, Tuple

REPO = Path(__file__).resolve().parents[2]

#: The prose the removed-names table is checked against.
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

LOOPS = (ast.For, ast.While)
LOOPY = LOOPS + (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@dataclass(frozen=True)
class Rule:
    """One structural fact about the tree.

    ``find`` maps ``{path: tree}`` to ``(path, line, what)`` sites.  The
    real tree (:func:`modules`), narrowed to ``scope`` minus ``exclude``,
    must yield exactly ``sites`` (a multiset of ``(path, what)``; empty
    means "nowhere").  ``plant`` placed at ``plant_at``, beside the
    ``(path, source)`` files of ``plants``, must yield exactly ``hits``
    (``(line, what)`` pairs).  Every excluded prefix must still
    hide a site.  ``mark`` is the pytest marker that selects the rule.
    """

    id: str
    why: str
    scope: Tuple[str, ...]
    find: Callable[[dict], Iterable[Tuple[str, int, str]]]
    sites: Tuple[Tuple[str, str], ...] = ()
    exclude: Tuple[str, ...] = ()
    plant: str = ""
    hits: Tuple[Tuple[int, str], ...] = ()
    plant_at: str = ""
    plants: Tuple[Tuple[str, str], ...] = ()
    mark: str = ""


def load(rel: str, source: str):
    """A tree for Python (its text kept as ``.source``, comments and all),
    the text itself for anything else."""
    if not rel.endswith(".py"):
        return source
    tree = ast.parse(source, filename=rel)
    tree.source = source
    return tree


@functools.lru_cache(maxsize=None)
def modules() -> dict:
    """Every linted file, parsed once: ``{repo-relative path: tree}``."""
    paths = [*REPO.glob("src/**/*.py"), *REPO.glob("tests/**/*.py")]
    # The experiments and the examples; the timed benchmark
    # (benchmarks/ledger/) and its recorder (trajectory.py) are not linted.
    paths += [path for path in REPO.glob("benchmarks/*.py") if path.name != "trajectory.py"]
    paths += REPO.glob("examples/*.py")
    paths += [path for pattern in DOCS for path in REPO.glob(pattern)]
    return {
        rel: load(rel, path.read_text(encoding="utf-8"))
        for path in sorted(paths)
        for rel in [path.relative_to(REPO).as_posix()]
    }


def select(scope, exclude=(), under="") -> dict:
    return {
        rel: tree for rel, tree in modules().items()
        if any(fnmatchcase(rel, pattern) for pattern in scope)
        and not rel.startswith(tuple(exclude)) and rel.startswith(under)
    }


@functools.lru_cache(maxsize=None)
def found(find, scope, exclude=(), under="") -> tuple:
    return tuple(sorted(find(select(scope, exclude, under))))


@functools.lru_cache(maxsize=None)
def problems(rule: Rule) -> tuple:
    """What is wrong with ``rule`` against the tree; empty when it holds."""
    at = rule.plant_at or re.sub(r"\*(\.py)?", "planted.py", rule.scope[0])
    planted = {path: load(path, source) for path, source in ((at, rule.plant), *rule.plants)}
    out = _mismatch(
        "tree", [(f"{rel}:{line}", (rel, what)) for rel, line, what in
                 found(rule.find, rule.scope, rule.exclude)], rule.sites,
    ) + _mismatch(
        "planted offender", [(f"line {line}", (line, what)) for _rel, line, what
                             in rule.find(planted)], rule.hits,
    )
    return tuple(out) + tuple(
        f"stale exclusion {prefix!r}: nothing under it would be flagged"
        for prefix in rule.exclude if not found(rule.find, rule.scope, (), prefix)
    )


def _mismatch(label: str, got: list, want) -> list:
    have, want = Counter(key for _where, key in got), Counter(want)
    return [f"{label}: unexpected {where}: {key[-1]}"
            for where, key in sorted(got) if have[key] > want[key]] \
        + [f"{label}: missing {key}" for key in (want - have).elements()]


def forget() -> None:
    """Drop the parsed tree (~60 MB of AST every later full GC would walk);
    what was found in it stays cached."""
    for cache in (modules, nodes, looped):
        cache.cache_clear()


def rule_test(*ids: str):
    """A test under the name one of these rules had in a lint file of its
    own: it asserts what ``test_rule`` does, from the same cached verdict."""
    def test(*_self):
        from tests.lint.rules import RULES
        rules = {rule.id: rule for rule in RULES}
        for rule in map(rules.__getitem__, ids):
            bad = problems(rule)
            assert not bad, f"{rule.id}: {rule.why}\n  " + "\n  ".join(bad)
    return test


def each(fn) -> Callable[[dict], list]:
    """A map predicate from a per-module one yielding ``(line, what)``."""
    return lambda trees: [
        (rel, line, what) for rel, tree in trees.items()
        for line, what in fn(tree)
    ]


def join(*finds):
    """One predicate that yields what each of ``finds`` does."""
    return lambda tree: [site for find in finds for site in find(tree)]


@functools.lru_cache(maxsize=None)
def nodes(tree: ast.AST) -> tuple:
    return tuple(ast.walk(tree))


def name_of(node: ast.AST):
    """``x`` for ``x`` and for ``anything.x``."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def calls(tree: ast.AST, names=None) -> list:
    return [
        node for node in nodes(tree) if isinstance(node, ast.Call)
        and (names is None or name_of(node.func) in names)
    ]


def functions(tree: ast.AST, top=False) -> dict:
    """``{name: FunctionDef}``, nested ones too unless ``top``."""
    return {
        node.name: node for node in (tree.body if top else nodes(tree))
        if isinstance(node, ast.FunctionDef)
    }


@functools.lru_cache(maxsize=None)
def looped(tree: ast.AST, kinds=LOOPY) -> frozenset:
    """ids of the nodes under a loop (or comprehension) of ``tree``."""
    return frozenset(
        id(inner) for node in ast.walk(tree) if isinstance(node, kinds)
        for inner in ast.walk(node) if inner is not node
    )


def descendants(trees: dict, root: str) -> list:
    """``(path, ClassDef)`` of every class that inherits, by name, from
    ``root`` — directly or through classes defined in ``trees``."""
    classes = [
        (rel, node) for rel, tree in trees.items() for node in nodes(tree)
        if isinstance(node, ast.ClassDef)
    ]
    family, grew = {root}, True
    while grew:
        grew = False
        for _rel, cls in classes:
            if cls.name not in family and {name_of(b) for b in cls.bases} & family:
                family.add(cls.name)
                grew = True
    return [(rel, cls) for rel, cls in classes if cls.name in family - {root}]


def namespace(rel: str, tree: ast.AST) -> dict:
    """The live module behind ``tree``: imported when it is the real
    file, executed when it is a planted offender."""
    if modules().get(rel) is tree:
        return vars(importlib.import_module(rel[4:-3].replace("/", ".")))
    space = {}
    exec(compile(tree, rel, "exec"), space)
    return space
