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


def test_cli_import_skips_quadrature(tmp_path):
    # scipy.integrate loads scipy.optimize and costs about 0.2 s of CPU
    # and 24 MB; nothing in the package needs either.  mpmath serves
    # only the cap_integral_mpmath cross-check, imported on its first
    # call, so every CLI start skips it; verify runs that oracle and
    # the ball check (which reads the closed-form radial CDFs) and must
    # still load neither scipy module
    code = ("import sys, capsmooth.cli\n"
            "def loaded(names):\n"
            "    return [m for m in names if m in sys.modules]\n"
            "print(loaded(('mpmath', 'scipy.integrate', 'scipy.optimize')))\n"
            "code = capsmooth.cli.main(['verify', '--quick', '--seed', '3',\n"
            "                           '--out', sys.argv[1]])\n"
            "print(code, loaded(('scipy.integrate', 'scipy.optimize')))\n")
    proc = subprocess.run([sys.executable, "-c", code,
                           str(tmp_path / "verify.csv")],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n") == ["[]", "1 []", ""]
