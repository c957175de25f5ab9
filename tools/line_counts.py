"""Print the physical lines and code lines of each module under a source directory.

Usage, from the root of a checkout::

    python tools/line_counts.py [SOURCE_DIR [BASE_DIR]]

``SOURCE_DIR`` defaults to ``src``; CI counts ``tests`` too. Every ``*.py``
file under it is counted. A code line holds a token that is not a comment,
outside the docstrings of modules, classes and functions, so blank lines,
comment lines and docstring lines are not code. Given ``BASE_DIR``, the same
directory in another checkout, each module's row and the total also print
their change against the module at the same path under ``BASE_DIR``, as
``physical/code``; a module missing on one side counts as 0 lines there.
Only the standard library is used.
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


def module_counts(root: Path) -> dict[Path, tuple[int, int]]:
    """``(physical, code)`` lines of each ``*.py`` file under ``root``, by its path in ``root``."""
    if not root.is_dir():
        raise SystemExit(f"{root} is not a directory")
    return {path.relative_to(root): line_counts(path) for path in root.rglob("*.py")}


def row(counts: tuple[int, ...], with_change: bool, name: str) -> str:
    """One printed row: ``counts`` is (physical, code, base physical, base code)."""
    physical, code, base_physical, base_code = counts
    change = f"{physical - base_physical:+d}/{code - base_code:+d}"
    return f"{physical:>8} {code:>6}{f' {change:>9}' if with_change else ''}  {name}"


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        raise SystemExit("usage: python tools/line_counts.py [SOURCE_DIR [BASE_DIR]]")
    here = module_counts(Path(argv[0] if argv else "src"))
    with_change = len(argv) == 2
    base = module_counts(Path(argv[1])) if with_change else {}
    print(f"{'physical':>8} {'code':>6}{'    change' if with_change else ''}  module")
    totals = (0, 0, 0, 0)
    for module in sorted(here.keys() | base.keys()):
        counts = here.get(module, (0, 0)) + base.get(module, (0, 0))
        totals = tuple(map(sum, zip(totals, counts)))
        print(row(counts, with_change, str(module)))
    print(row(totals, with_change, "total"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
