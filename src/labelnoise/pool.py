"""One worker process per task, forked, each task's result sent back on a pipe of its own.

A task is called with no arguments in its worker and returns ``(header, buffers)``: a
picklable header and an iterable of bytes-like buffers. :func:`map_forked` gives the parent
each header, in task order, and the pipe on which that task's buffers follow, so large
arrays cross as raw bytes into memory the parent allocates.

Workers are forked, not spawned, so that they read the parent's arrays without a copy and
start with nothing to import. They fork after numpy's OpenBLAS has started its threads,
which is safe because a worker never calls BLAS or takes a lock that another thread of the
parent could hold. Python 3.12 and later warn about such a fork (``This process ... is
multi-threaded, use of fork() may lead to deadlocks in the child``) under ``-W always``.
"""

import os
import pickle
import signal
from contextlib import contextmanager

# What a worker that exits before it has sent all it owes raises: in words of dataset files,
# the one user so far.
STOPPED_EARLY = "a dataset file worker stopped before it finished its range"


def worker_count() -> int:
    """The most workers worth forking at once: one per CPU this process may run on, where
    worker processes can be forked."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(task, pipe: int) -> None:
    """Runs ``task`` in a worker process. Writes to the pipe ``pipe`` the pickled pair ``(error,
    header)``, then, if the task returned ``(header, buffers)``, the bytes of each buffer. The
    header is pickled before anything is written, so a header that cannot be pickled is sent
    as the task's error."""
    with open(pipe, "wb") as out:
        try:
            header, buffers = task()
            sent = pickle.dumps((None, header))
        except Exception as exc:  # raised again in the parent, by _header
            pickle.dump((_crossing(exc), None), out)
        else:
            out.write(sent)
            out.writelines(buffers)


def _crossing(exc: Exception) -> Exception:
    """``exc`` if it comes back whole from a pickle round trip; otherwise a
    ``ChildProcessError`` that names its type and message, which does."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return ChildProcessError(f"a worker's task raised {type(exc).__qualname__}: {exc}")
    return exc


def _fork(task) -> tuple:
    """``(pid, pipe)`` of a new worker process that runs :func:`_serve` on ``task`` and exits;
    it leaves without flushing or finalizing anything it inherited."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            _serve(task, write_end)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _header(pipe):
    """The header of the task behind ``pipe``; the exception the task raised is raised here."""
    try:
        error, header = pickle.load(pipe)
    except EOFError:
        raise ChildProcessError(STOPPED_EARLY) from None
    if error is not None:
        raise error
    return header


@contextmanager
def map_forked(tasks):
    """``[(header, pipe), ...]``, one pair per task of ``tasks``, in order, each task run in a
    worker process of its own: the header it returned, and the pipe its buffers follow on.

    The first exception a task raised, in task order, is raised here, or a ``ChildProcessError``
    that names it when it cannot cross by pickle; a worker that exits before it sends its
    header raises ``ChildProcessError`` too. The workers are killed if the block raises, and
    reaped before it exits.
    """
    workers = []
    try:
        for task in tasks:
            workers.append(_fork(task))
        yield [(_header(pipe), pipe) for _, pipe in workers]
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.waitpid(pid, 0)
