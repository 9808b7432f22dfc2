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


def test_no_scalar_sigma_min():
    # sigma_min is read from matrix_problem's evaluate_batch; the scalar
    # LAPACK helper that only a second evaluator used is gone
    for module in ("capsmooth", "capsmooth.condnum"):
        mod = importlib.import_module(module)
        assert "smallest_singular_value" not in mod.__all__
        assert not hasattr(mod, "smallest_singular_value")


def test_cli_import_skips_quadrature(tmp_path, child_env):
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
                          capture_output=True, text=True, check=True,
                          env=child_env)
    assert proc.stdout.split("\n") == ["[]", "1 []", ""]


def test_runs_without_scipy(child_env):
    # scipy is a test oracle only: importing the package and its CLI
    # loads none of it, and with every scipy import refused (so a lazy
    # one cannot come back) a pole law still samples, reads its radial
    # CDF, and normalizes and samples a tabulated profile
    code = (
        "import sys\n"
        "import capsmooth, capsmooth.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is blocked: ' + name)\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import numpy as np\n"
        "from capsmooth.distributions import (AdversarialLaw, Cap,\n"
        "                                     normalize_profile)\n"
        "from capsmooth.montecarlo import stream_rng\n"
        "center = np.eye(5)[0]\n"
        "law = AdversarialLaw(Cap(center, 1.0), 1.5)\n"
        "z = law.sample(stream_rng(1, 0), size=1000)\n"
        "f = law.radial_cdf(np.linspace(0.0, 1.0, 11))\n"
        "prof = normalize_profile(lambda r: 2.0 - r / 0.5, 4, 1.0, 0.5)\n"
        "tab = AdversarialLaw(Cap(center, 0.5), 1.0, prof)\n"
        "t = tab.sample(stream_rng(2, 0), size=101)\n"
        "print(z.shape, f[0], f[-1], t.shape, prof.kind)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=child_env)
    assert proc.stdout.split("\n") == [
        "[]", "(1000, 5) 0.0 1.0 (101, 5) tabulated", ""]
