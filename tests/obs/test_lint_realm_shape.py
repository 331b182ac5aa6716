"""The one-realm-shape lint: the names these checks had before they became rows of
``tests/lint/rules.py``, each asserting its rules' verdicts."""

from tests.lint.harness import rule_test

test_no_code_asks_whether_the_realm_has_a_ring = rule_test("realm-is-always-a-ring")
test_lint_catches_a_shape_test = rule_test("realm-is-always-a-ring")
