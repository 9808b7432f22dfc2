"""The public import surface: every exported name resolves."""

import importlib

import pytest

MODULES = ["", ".bounds", ".checks", ".condnum", ".distributions",
           ".geometry", ".montecarlo", ".volumes"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module("capsmooth" + module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
