"""Every rule of ``rules.RULES`` against the tree, and against itself.

``test_rule[<id>]`` runs :func:`harness.problems`; select one rule with
``pytest tests/lint -k <id>``.
"""

import dataclasses
import re
import subprocess
import sys

import pytest

from tests.lint.harness import REPO, forget, problems
from tests.lint.rules import RULES


def _params():
    assert len({rule.id for rule in RULES}) == len(RULES), "rule ids must be unique"
    return [
        pytest.param(rule, id=rule.id, marks=[getattr(pytest.mark, m) for m in [rule.mark] if m])
        for rule in RULES
    ]


@pytest.fixture(autouse=True, scope="module")
def _drop_the_tree():
    """Once every rule has run, the parsed tree goes; verdicts stay cached."""
    yield
    forget()


@pytest.mark.parametrize("rule", _params())
def test_rule(rule):
    found = problems(rule)
    assert not found, f"{rule.id}: {rule.why}\n  " + "\n  ".join(found)


@pytest.mark.parametrize("rule", _params())
def test_rule_has_teeth(rule):
    """A rule whose predicate finds nothing fails, and so does one that
    has lost any one of its expected sites."""
    assert rule.hits, f"{rule.id} plants no offender"
    assert problems(dataclasses.replace(rule, find=lambda trees: ()))
    for i in range(len(rule.sites)):
        fewer = rule.sites[:i] + rule.sites[i + 1:]
        assert problems(dataclasses.replace(rule, sites=fewer)), rule.sites[i]


def test_the_address_rule_refuses_its_old_allow_list():
    """``realm/`` and ``netsim/`` hold no address literal: exempting them fails."""
    (rule,) = [rule for rule in RULES if rule.id == "no-kdc-address-literal"]
    found = problems(dataclasses.replace(rule, exclude=("src/repro/realm/", "src/repro/netsim/")))
    assert [line.split("'")[1] for line in found] == ["src/repro/realm/", "src/repro/netsim/"]


@pytest.mark.parametrize("mark, ids", [
    ("obs", {"audit-event-built-in-one-module", "audit-kinds-match-the-vocabulary"}),
    ("shard", {"no-kdc-address-literal"}),
])
def test_markers_select_the_rules_they_did(mark, ids):
    """``-m obs`` and ``-m shard`` still pick the rules that came from
    the audit and the locator lints."""
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-p", "no:cacheprovider",
         "-p", "no:hypothesispytest", "-p", "no:benchmark",
         "-m", mark, __file__],
        capture_output=True, text=True, cwd=REPO, check=True,
    ).stdout
    assert set(re.findall(r"::test_rule\[([\w-]+)\]", collected)) == ids
