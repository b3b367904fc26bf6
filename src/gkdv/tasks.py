"""Run independent tasks side by side in forked processes.

side_by_side is the one owner of how many processes a run uses.  Task i
runs in worker i mod w; worker 0 is the calling process, and every other
worker is a child made with os.fork that sends its results back pickled
through a pipe.  A task computes the same bits in whichever process it runs,
so the results do not depend on the worker count.  gkdv starts no threads,
and OpenBLAS resets its own pool across a fork, so forking is safe here.
"""

from __future__ import annotations

import os
import pickle
from contextlib import suppress

from .errors import WorkerError

# True while this process runs the tasks of a side_by_side call, in the
# caller's share or in a child; a call made from inside one runs serially.
_inside = False


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity, else cpu_count(), else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outcome(share) -> tuple[list, Exception | None]:
    """Run share's tasks in order: the results of those that finished, and
    the exception of the first that raised, or None."""
    results = []
    try:
        for task in share:
            results.append(task())
    except Exception as exc:  # the caller raises it once every worker has reported
        return results, exc
    return results, None


def _fork(share, open_fds: list[int]) -> tuple[int, int]:
    """Start a child that runs share and pickles its _outcome into a pipe;
    returns the child's pid and the pipe's read end."""
    global _inside
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    # the child always leaves through os._exit, so it never flushes the
    # parent's buffered output or runs its finally blocks and atexit hooks
    code = 1
    try:
        _inside = True
        for fd in (read_fd, *open_fds):
            os.close(fd)
        payload = pickle.dumps(_outcome(share))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, read_fd: int) -> tuple[list, Exception | None]:
    """The _outcome a child sent, once the child has been reaped; a child
    that exited otherwise than with status 0 sent none."""
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return pickle.loads(payload)
    how = f"exit status {code}" if code > 0 else f"signal {-code}"
    return [], WorkerError(f"worker process {pid} ended with {how} and returned no result")


def side_by_side(tasks, *, jobs: int) -> list:
    """The results of the zero-argument callables in tasks, in their order.

    They run on w = min(jobs, len(tasks), usable_cpus()) processes, the
    caller included, and serially when w is 1, when os.fork is missing or
    when this call is made from a task of another side_by_side call.  Where
    tasks raise, the exception of the lowest task index is raised, the one a
    serial loop would raise; a child that ends without its results raises
    WorkerError at its first task.  Every child is reaped before the call
    returns or raises.
    """
    global _inside
    nested = _inside
    workers = 1
    if not nested and hasattr(os, "fork"):
        workers = max(1, min(jobs, len(tasks), usable_cpus()))
    children: list[tuple[int, int]] = []
    try:
        for worker in range(1, workers):
            children.append(_fork(tasks[worker::workers], [fd for _, fd in children]))
        _inside = True
        shares = [_outcome(tasks[0::workers])]
        while children:
            shares.append(_collect(*children[0]))
            children.pop(0)
    finally:
        _inside = nested
        # children are left here only when the caller was stopped, by an
        # interrupt (perhaps partway through _collect) or a failed fork:
        # their results are not wanted, so each is killed and reaped
        if children:
            import signal  # loads only on this path, not with gkdv
        for pid, read_fd in children:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(OSError):
                os.close(read_fd)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
    results = [None] * len(tasks)
    failures = []
    for worker, (done, exc) in enumerate(shares):
        indices = range(worker, len(tasks), workers)
        for index, result in zip(indices, done):
            results[index] = result
        if exc is not None:
            failures.append((indices[len(done)], exc))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
