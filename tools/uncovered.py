"""Print each executable line of the labelnoise package that no test runs, and fail if any.

Usage, from the root of a checkout::

    PYTHONPATH=src python tools/uncovered.py [PYTEST_ARGS ...]

The tests run in this process, through ``pytest.main`` with ``PYTEST_ARGS``
(by default ``-q --continue-on-collection-errors``, the tier-1 flags), under a
``sys.settrace`` hook that records the lines run in frames of the package's
own source files; every other frame is left untraced. The executable lines of
a module are the lines of the instructions of its code objects, nested ones
included (``co_lines``). Each line that holds an instruction and was never
run prints as ``path:line: source``, then a count. Code that runs in a forked
worker process, or in a thread, is not seen: a child's record is lost when it
exits, and only this thread is traced. The exit status is pytest's when pytest
fails; when it passes, it is 1 if any line was not run and 0 otherwise. Only the
standard library and pytest are used.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "labelnoise"


def executable_lines(code: CodeType) -> set[int]:
    """The lines that hold an instruction of ``code`` or of a code object nested in it."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def run_traced(args: list[str], files: set[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status for ``args``, and the lines run in each of ``files``."""
    ran: dict[str, set[int]] = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    sources = {str(path): path for path in sorted(PACKAGE.rglob("*.py"))}
    status, ran = run_traced(argv or ["-q", "--continue-on-collection-errors"], set(sources))
    missed = total = 0
    for name, path in sources.items():
        text = path.read_text(encoding="utf-8")
        lines = executable_lines(compile(text, name, "exec"))
        source = text.splitlines()
        total += len(lines)
        for line in sorted(lines - ran[name]):
            missed += 1
            print(f"{path.relative_to(PACKAGE.parents[1])}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines of {PACKAGE.name} were not run")
    return status or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
