"""tools/code_lines.py, the code-line count that changes are measured by,
and tools/line_coverage.py, which lists the lines a run never executes.
The scripts are no modules of the package, so they are loaded or run by
their paths."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

_SCRIPT = (pathlib.Path(__file__).resolve().parents[1] / "tools"
           / "code_lines.py")

# five code lines: the import, the def, the two lines of the call and
# the return; the docstrings, the comments, the blank lines and the bare
# string statement hold none
SOURCE = b'''"""A module docstring,
on two lines."""

import math  # a comment after code counts as its line


def f(x):
    """A function docstring."""
    # a comment alone
    "a bare string statement"

    y = max(x,
            1.0)
    return math.sqrt(y)
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count(code_lines):
    assert code_lines.code_lines(SOURCE) == 5


def test_main_sums_a_directory(code_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_bytes(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_bytes(SOURCE)
    (tmp_path / "notes.txt").write_bytes(SOURCE)
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == "10\n"


# a package whose one untaken branch is line 6 of mod.py: its import
# runs the module-level lines, f runs in a thread, which the tracer must
# follow, and the module's exit status is f's
MOD = b'''import threading


def f(x):
    if x < 0:
        return 5
    return 3


def in_thread():
    out = []
    t = threading.Thread(target=lambda: out.append(f(1)))
    t.start()
    t.join()
    return out[0]
'''

MAIN = b'''import sys

from . import mod

assert sys.argv[1:] == ["arg"]
sys.exit(mod.in_thread())
'''


def test_line_coverage_lists_the_untaken_branch(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_bytes(b"")
    (pkg / "__main__.py").write_bytes(MAIN)
    (pkg / "mod.py").write_bytes(MOD)
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    script = _SCRIPT.with_name("line_coverage.py")
    done = subprocess.run([sys.executable, str(script), "--src", str(pkg),
                           "pkg", "arg"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert done.stdout == "pkg/mod.py:6: return 5\n"
