"""The audit lints: the names these checks had before they became rows of
``tests/lint/rules.py``, each asserting its rules' verdicts."""

import pytest

from tests.lint.harness import rule_test

pytestmark = pytest.mark.obs

test_audit_events_only_constructed_in_the_audit_module = rule_test(
    "audit-event-built-in-one-module"
)
test_the_audit_module_itself_constructs_the_event = rule_test("audit-event-built-in-one-module")
test_every_emitted_kind_is_in_the_vocabulary = rule_test("audit-kinds-match-the-vocabulary")
test_every_vocabulary_kind_is_emitted_somewhere = rule_test("audit-kinds-match-the-vocabulary")
test_lint_catches_a_planted_construction = rule_test("audit-event-built-in-one-module")
