"""Package layout: every exported name exists."""

import importlib

import pytest

MODULES = ["overallprior"] + [f"overallprior.{name}" for name in (
    "catalogue", "cli", "hier", "numerics", "refdist", "shrinkage")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
