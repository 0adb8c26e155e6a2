"""Count the code lines of a Python package directory.

A code line is a physical line that holds part of a token other than a
comment, a line break or an indent: blank lines, comment lines and
docstrings (the leading string of a module, class or function body) do
not count, and a string literal counts every line it spans.  Prints one
line per module and the total, for example

    python tools/code_lines.py src/keyshare

Uses only the standard library (ast, tokenize).
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of a module's scopes."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docs = docstring_lines(ast.parse(text))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", type=Path, help="directory of the package's .py files")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
