"""tools/code_lines.py, the code-line count that changes are measured by.
The script is no module of the package, so it is loaded by its path."""

import importlib.util
import pathlib

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
