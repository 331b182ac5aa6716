"""Doctests embedded in API docstrings must stay true."""

import doctest

import pytest

import repro.crypto.des
import repro.crypto.keygen


@pytest.mark.parametrize(
    "module",
    [repro.crypto.des, repro.crypto.keygen],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no doctest examples"
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
