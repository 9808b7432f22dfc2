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
    # scipy.integrate, which loads scipy.optimize, serves only the
    # quadrature cross-check cap_integral_quad and costs every CLI start
    # about 0.2 s of CPU when imported with the package; the ball check
    # reads the closed-form radial CDFs and must not load either
    code = ("import sys, capsmooth.cli\n"
            "from capsmooth import bounds\n"
            "from capsmooth.distributions import AdversarialLaw, Cap\n"
            "def loaded():\n"
            "    return [m for m in ('scipy.integrate', 'scipy.optimize')\n"
            "            if m in sys.modules]\n"
            "print(loaded())\n"
            "law = AdversarialLaw(Cap([1.0, 0.0, 0.0, 0.0], 0.8), 1.5)\n"
            "assert bounds.ball_maximizer_check(law, [(0.2, 0.4)])\n"
            "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split("\n") == ["[]", "[]", ""]
