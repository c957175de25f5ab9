"""Fixtures shared by more than one test module."""

import tracemalloc

import pytest


def _traced_peak(action) -> int:
    """Bytes by which ``action()`` raised the traced Python and numpy heap at its peak."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        action()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The heap peak of a call, measured with ``tracemalloc``."""
    return _traced_peak
