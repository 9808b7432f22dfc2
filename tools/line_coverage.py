"""List the lines of a package that a run never executes.

    python tools/line_coverage.py pytest -q tests
    python tools/line_coverage.py capsmooth verify --quick
    python tools/line_coverage.py --src src/capsmooth pytest -q tests

MODULE runs with ARGS as `python -m MODULE ARGS...` would run it
(runpy), traced by sys.settrace and threading.settrace from before its
import, so module-level lines count, and threads it starts are traced
too; child processes are not.  Only files under --src are traced.  A
line is executable when some code object compiled from its file covers
it in co_lines(); every executable line of every .py file under --src
that never ran is printed as PATH:LINE: SOURCE, by file.  The exit
status is the module's.  Needs nothing beyond the standard library.
"""

import argparse
import os
import pathlib
import runpy
import sys
import threading


def executable_lines(source, filename):
    """The line numbers that the code objects compiled from source
    cover, nested ones included."""
    lines = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        # a module's code starts at line 0, which holds no source
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(module, args, root):
    """Run module as __main__ with argv [module, *args], tracing the
    files under root; returns (exit status, {path: lines that ran})."""
    ran = {}
    inside = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        path = inside.get(name)
        if path is None:
            full = os.path.realpath(name)
            path = inside[name] = full if full.startswith(root) else ""
        if not path:
            return None
        hit = ran.setdefault(path, set())
        # a frame's first line: the def of a function, the decorator of
        # a decorated one
        hit.add(frame.f_lineno)

        def lines(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return lines
        return lines

    sys.argv = [module, *args]
    status = 0
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default="src/capsmooth",
                        help="directory whose .py files are traced")
    parser.add_argument("module", help="module to run, as python -m runs it")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="the module's arguments")
    opts = parser.parse_args(argv)
    src = pathlib.Path(opts.src).resolve()
    status, ran = run_traced(opts.module, opts.args, str(src) + os.sep)
    sys.stdout.flush()
    for path in sorted(src.rglob("*.py")):
        source = path.read_text()
        missed = (executable_lines(source, str(path))
                  - ran.get(str(path), set()))
        text = source.splitlines()
        for line in sorted(missed):
            print("%s:%d: %s" % (os.path.relpath(path), line,
                                 text[line - 1].strip()))
    return status


if __name__ == "__main__":
    sys.exit(main())
