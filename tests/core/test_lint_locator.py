"""The KDC-address lint: the names these checks had before they became rows of
``tests/lint/rules.py``, each asserting its rules' verdicts."""

import pytest

from tests.lint.harness import rule_test

pytestmark = pytest.mark.shard

test_no_legacy_discovery_outside_the_shims = rule_test("no-kdc-address-literal")
test_lint_catches_planted_offenders = rule_test("no-kdc-address-literal")
