"""The public import surface: every exported name resolves."""

import importlib
import subprocess
import sys

import pytest

MODULES = ["", ".bounds", ".checks", ".condnum", ".distributions",
           ".geometry", ".montecarlo", ".volumes"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module("capsmooth" + module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_cli_import_skips_quadrature():
    # scipy.integrate and scipy.optimize serve only the quadrature
    # cross-check and ball_maximizer_check, and cost every CLI start
    # about 0.2 s of CPU when imported with the package
    code = ("import sys, capsmooth.cli; print([m for m in "
            "('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
