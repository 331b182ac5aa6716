"""The authentication front-door lints: the names these checks had before they became rows of
``tests/lint/rules.py``, each asserting its rules' verdicts."""

from tests.lint.harness import rule_test

test_one_krb_rd_req_call_and_one_replay_cache_construction = rule_test("one-authenticate-site")
test_bind_audit_stays_gone = rule_test("removed-names-stay-gone")
test_no_service_subclass_wires_its_own_observability = rule_test("services-wire-no-observability")
test_every_ticket_taking_daemon_inherits_the_one_crash_model = rule_test(
    "authenticated-services-share-one-lifecycle"
)
test_lint_catches_a_side_door = rule_test(
    "one-authenticate-site", "services-wire-no-observability"
)
test_lint_catches_a_private_crash_model = rule_test("authenticated-services-share-one-lifecycle")
