"""Count the code lines of Python sources: lines that hold a token, less
docstrings, comments and blank lines.

A line counts when a token other than a comment, an indent, a dedent or a
line break starts or runs on it, so each line of a statement split over
several lines counts, and so does each line of a multi-line string that is
not a docstring.  A docstring is the string statement that opens a module,
a class or a function.

Usage: python tools/code_lines.py PATH [PATH ...]

A directory stands for the ``*.py`` files below it.  Prints one line per
file and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    files = []
    for arg in argv:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
