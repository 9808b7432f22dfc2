"""Count the code lines of Python files: every line that holds a token
of code, leaving out blank lines, comments and docstrings (a string
that stands alone as a statement).

    python tools/code_lines.py src/            # one total
    python tools/code_lines.py -v src/ tests/  # and one line per file

Directories are searched for .py files recursively.
"""

import argparse
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source):
    """The number of lines of source that hold code."""
    lines = set()
    statement = []
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in _SKIP:
            if tok.type == tokenize.NEWLINE:
                # a statement that is one string and nothing else is a
                # docstring, and holds no code
                if not (len(statement) == 1
                        and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def _files(paths):
    for path in map(pathlib.Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the count of every file")
    args = parser.parse_args(argv)
    total = 0
    for path in _files(args.paths):
        count = code_lines(path.read_bytes())
        total += count
        if args.verbose:
            print("%6d  %s" % (count, path))
    print(total)


if __name__ == "__main__":
    sys.exit(main())
