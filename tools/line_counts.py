"""Print the physical lines and code lines of each module of the package sources.

Usage, from the root of a checkout::

    python tools/line_counts.py [SOURCE_DIR]

``SOURCE_DIR`` defaults to ``src``; every ``*.py`` file under it is counted. A
code line holds a token that is not a comment, outside the docstrings of
modules, classes and functions, so blank lines, comment lines and docstring
lines are not code. Only the standard library is used.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_counts(path: Path) -> tuple[int, int]:
    """``(physical, code)`` lines of the Python file ``path``."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    source = path.read_text(encoding="utf-8")
    code = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src")
    total_physical = total_code = 0
    print(f"{'physical':>8} {'code':>6}  module")
    for path in sorted(root.rglob("*.py")):
        physical, code = line_counts(path)
        total_physical += physical
        total_code += code
        print(f"{physical:>8} {code:>6}  {path.relative_to(root)}")
    print(f"{total_physical:>8} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
