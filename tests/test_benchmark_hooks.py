"""The benchmark's instrumentation targets must exist in the package.

``perfbench/tracing.py`` wraps labelnoise functions by name from outside
the package. A refactor that deletes or renames one of them only fails
there under ``perfbench/run.py --trace 1``; this test makes it fail here.
The module's source is executed in a fresh namespace (no bytecode is
written beside it) and only its target tables are read.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> dict:
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


tracing = load_tracing()
TARGETS = sorted({target[1:3] for target in tracing["TIMED_TARGETS"] + tracing["TRACE_TARGETS"]})


def test_both_target_tables_are_populated():
    assert tracing["TIMED_TARGETS"] and tracing["TRACE_TARGETS"]
    assert "labelnoise.config" in {module for module, _ in TARGETS}


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_target_resolves_to_a_callable(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
