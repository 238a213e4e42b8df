"""Run the examples in the module docstrings of the package."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize("name", ["abelian", "divcalc", "quadring", "quatcheck", "tring",
                                  "zerosum"])
def test_module_doctests(name):
    results = doctest.testmod(importlib.import_module(f"nufact.{name}"))
    assert results.failed == 0
