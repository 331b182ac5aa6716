"""The transfer front-door lints: the names these checks had before they became rows of
``tests/lint/rules.py``, each asserting its rules' verdicts."""

from tests.lint.harness import rule_test

test_one_verify_site_and_one_mac_site = rule_test("one-transfer-front-door")
test_every_transfer_port_is_behind_the_base_class = rule_test("one-transfer-front-door")
test_sharding_speaks_no_transfer_framing = rule_test("sharding-speaks-no-transfer-framing")
test_lint_catches_a_side_door = rule_test(
    "one-transfer-front-door", "sharding-speaks-no-transfer-framing"
)
