"""The service-bind lints: the names these checks had before they became rows of
``tests/lint/rules.py``, each asserting its rules' verdicts."""

from tests.lint.harness import rule_test

test_no_raw_binds_or_scheduler_bypass_under_src_repro = rule_test(
    "no-raw-bind", "no-inline-handler-call"
)
test_lint_covers_every_daemon_module = rule_test("no-raw-bind")
test_the_attacker_exemption_is_real = rule_test("no-raw-bind")
test_lint_catches_a_raw_bind = rule_test("no-raw-bind")
test_lint_catches_inline_handler_invocation = rule_test("no-inline-handler-call")
test_lint_permits_lookup_without_call = rule_test("no-inline-handler-call")
