"""The journaled-write lint: the names these checks had before they became rows of
``tests/lint/rules.py``, each asserting its rules' verdicts."""

from tests.lint.harness import rule_test

test_no_store_mutation_outside_repro_database = rule_test("no-raw-store-mutation")
test_the_journaled_wrappers_exist_where_allowed = rule_test("no-raw-store-mutation")
test_lint_catches_a_bypassing_put = rule_test("no-raw-store-mutation")
test_lint_permits_reads = rule_test("no-raw-store-mutation")
test_lint_permits_unrelated_puts = rule_test("no-raw-store-mutation")
