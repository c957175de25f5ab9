"""Tests for the fork pool. The worker's side runs in this process, with ``os.fork`` patched to
return 0 and ``os._exit`` to raise, so that a line tracer sees it; the rest forks real workers."""

import errno
import os
import pickle
from functools import partial

import pytest

from labelnoise import ExperimentError, InvalidInputError, TrainingError, pool


def sending(index):
    """A task: its header, then two buffers."""
    return ("header", index), [bytes([index]) * 3, memoryview(b"end")]


def raising(error):
    raise error


def local_error(message):
    """An exception of a class defined here, which pickle cannot find by name."""

    class LocalError(Exception):
        pass

    return LocalError(message)


class TwoArgs(Exception):
    """Pickles, but does not unpickle: it passes one of its two arguments to ``Exception``."""

    def __init__(self, a, b):
        super().__init__(a)
        self.b = b


def received(pipe):
    """What the parent reads from ``pipe``: the header and the bytes that follow it, or the
    type and message of the exception the header raises."""
    try:
        header = pool._header(pipe)
    except Exception as exc:
        return type(exc), str(exc)
    return header, pipe.read()


class _Exited(Exception):
    """Raised by a patched ``os._exit``."""


@pytest.mark.parametrize(
    "task, status, expected",
    [
        (partial(sending, 2), 0, (("header", 2), b"\x02\x02\x02end")),
        # the exception a task raises is sent, and raised again in the parent
        (partial(raising, ValueError("line 3: bad row")), 0, (ValueError, "line 3: bad row")),
        (partial(raising, InvalidInputError("x must be finite")), 0,
         (InvalidInputError, "x must be finite")),
        (partial(raising, KeyError("row")), 0, (KeyError, "'row'")),
        # the package's run-time errors pickle with their own arguments
        (partial(raising, TrainingError("training diverged", 3)), 0,
         (TrainingError, "epoch 3: training diverged")),
        # a header that cannot be pickled is sent as the task's error, the pickling error
        (lambda: ((row for row in ()), ()), 0, (TypeError, "cannot pickle 'generator' object")),
        # an exception that cannot cross whole is named by a stand-in
        (partial(raising, local_error("x must be 1")), 0, (
            ChildProcessError,
            "a worker's task raised local_error.<locals>.LocalError: x must be 1",
        )),
        (partial(raising, TwoArgs("a", "b")), 0,
         (ChildProcessError, "a worker's task raised TwoArgs: a")),
    ],
    ids=["returns", "raises_value_error", "raises_invalid_input", "raises_key_error",
         "raises_training_error", "unpicklable_header", "raises_unpicklable_error",
         "raises_error_that_does_not_unpickle"],
)
def test_child_branch_serves_its_task_then_exits(monkeypatch, task, status, expected):
    read_end, write_end = os.pipe()
    reader = os.dup(read_end)  # the child closes read_end; this end keeps the pipe open
    statuses = []

    def exit_(code):
        statuses.append(code)
        raise _Exited

    monkeypatch.setattr(os, "pipe", lambda: (read_end, write_end))
    monkeypatch.setattr(os, "fork", lambda: 0)
    monkeypatch.setattr(os, "_exit", exit_)
    with pytest.raises(_Exited):
        pool._fork(task)
    assert statuses == [status]
    with pytest.raises(OSError) as excinfo:
        os.fstat(read_end)
    assert excinfo.value.errno == errno.EBADF
    with open(reader, "rb") as pipe:
        assert received(pipe) == expected


def test_failed_fork_closes_both_pipe_ends(monkeypatch):
    ends = []
    real_pipe = os.pipe

    def pipe():
        ends.extend(real_pipe())
        return tuple(ends)

    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(BlockingIOError):
        with pool.map_forked([partial(sending, 0)]):
            pass
    assert len(ends) == 2
    for end in ends:
        with pytest.raises(OSError) as excinfo:
            os.fstat(end)
        assert excinfo.value.errno == errno.EBADF


def test_headers_and_pipes_come_in_task_order():
    with pool.map_forked([partial(sending, index) for index in range(3)]) as results:
        sent = [(header, pipe.read()) for header, pipe in results]
    assert sent == [(("header", i), bytes([i]) * 3 + b"end") for i in range(3)]


def test_first_exception_in_task_order_is_raised():
    tasks = [
        partial(sending, 0),
        partial(raising, ValueError("the second task")),
        partial(raising, KeyError("the third task")),
    ]
    with pytest.raises(ValueError, match="^the second task$"):
        with pool.map_forked(tasks):
            pass


def test_worker_count_without_fork_is_one(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert pool.worker_count() == 1


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
def test_worker_count_without_affinity_is_the_cpu_count(monkeypatch, cpus, workers):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert pool.worker_count() == workers


@pytest.mark.parametrize(
    "error, attribute, text",
    [(TrainingError("boom", 3), "epoch", "epoch 3: boom"),
     (ExperimentError("boom", 3), "run_index", "run 3: boom")],
    ids=["training_error", "experiment_error"],
)
def test_run_time_errors_survive_a_pickle_round_trip(error, attribute, text):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) == text
    assert getattr(copy, attribute) == 3
