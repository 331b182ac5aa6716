"""The no-wall-clock lint: the names these checks had before they became rows of
``tests/lint/rules.py``, each asserting its rules' verdicts."""

from tests.lint.harness import rule_test

test_no_wall_clock_reads_under_src_repro = rule_test("no-wall-clock-or-global-rng")
test_lint_covers_the_resilience_modules = rule_test("no-wall-clock-or-global-rng")
test_lint_covers_the_observability_modules = rule_test("no-wall-clock-or-global-rng")
test_lint_catches_a_violation = rule_test("no-wall-clock-or-global-rng")
test_lint_catches_global_rng = rule_test("no-wall-clock-or-global-rng")
