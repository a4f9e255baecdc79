"""Count the code lines of Python modules, per module and in total.

A code line is a physical line that holds at least one token other
than a comment or a docstring: blank lines, comment lines and the
lines of a docstring (a string literal that is a statement by itself)
do not count, and a line that continues an expression across a line
break counts like any other.  A directory counts its *.py files, found
recursively in sorted order:

    python bench/loc.py src/nanoband
"""

from __future__ import annotations

import argparse
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path: str) -> int:
    """The number of code lines of the Python file at path."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    statement_start = True  # no token of the current statement seen yet
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            if tok.type == tokenize.NEWLINE:
                statement_start = True
            continue
        docstring = (statement_start and tok.type == tokenize.STRING
                     and tokens[i + 1].type in (tokenize.NEWLINE,
                                                tokenize.ENDMARKER))
        statement_start = False
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _modules(paths: list[str]) -> list[str]:
    out = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                out += [os.path.join(root, f) for f in sorted(files)
                        if f.endswith(".py")]
        else:
            out.append(path)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+",
                        help="Python files or directories to count")
    args = parser.parse_args(argv)
    total = 0
    for path in _modules(args.paths):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
