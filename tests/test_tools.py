"""tools/code_lines.py, the code-line count that changes are measured by,
tools/line_coverage.py, which lists the lines a run never executes,
tools/cli_tour.py, the run of every subcommand that it traces, and
tools/kernel_table.py, the branch table of the radius kernels.  The
scripts are no modules of the package, so they are loaded or run by
their paths."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from capsmooth import cli

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


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, _SCRIPT.with_name(name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def code_lines():
    return _load("code_lines")


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


def test_cli_tour_runs_every_subcommand(tmp_path):
    # the tour names each subcommand the parser registers, runs each
    # that takes --format in both formats, and none of its runs is
    # refused as invalid input (exit 2); verify exits 1 on the failures
    # it reports
    tour = _load("cli_tour")
    _, commands = cli._build_parser()
    assert {run[0] for run in tour.RUNS} == set(commands)
    for name, parser in commands.items():
        action = next((a for a in parser._actions
                       if "--format" in a.option_strings), None)
        if action is None:
            continue
        formats = {run[run.index("--format") + 1] if "--format" in run
                   else action.default for run in tour.RUNS if run[0] == name}
        assert formats == set(action.choices), name
    done = tour.tour(str(tmp_path))
    assert [argv[0] for argv, _ in done] == [run[0] for run in tour.RUNS]
    assert all(status in (0, 1) for _, status in done), done


def test_kernel_table_rows(capsys):
    # the tool's rows are the kernels' own tables: on the grid of the
    # kernels verify --quick builds, their sizes as pinned there; at
    # m = 64 and 300 with sigma = 1 the lower branch misses; and the
    # law of m = 300 at sigma = 0.05 has no double mass
    from test_distributions import TestCostGuard

    table = _load("kernel_table")
    table.main(["--m", "1.5,2,3,4,5,8,10", "--sigma", "0.5,0.8,1"])
    table.main(["--m", "64,300", "--sigma", "0.05,1"])
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        m, sigma, *cells = line.split()
        rows[float(m), float(sigma)] = cells
    assert len(rows) == 7 * 3 + 2 * 2
    for m, sigma, sizes in TestCostGuard.VERIFY_KERNELS:
        assert rows[m, sigma] == ["-" if size is None else str(size)
                                  for size in sizes]
    assert rows[64.0, 1.0] == rows[300.0, 1.0] == ["miss", "5"]
    assert rows[300.0, 0.05] == ["underflow"]
