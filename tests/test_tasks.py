"""side_by_side: results in task order, the failure a serial loop would raise,
no fork where none can help, and no child process left behind."""

import os
import time

import pytest

from gkdv import tasks
from gkdv.errors import WorkerError
from gkdv.tasks import side_by_side


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host, so that a call of 2 or more tasks forks."""
    monkeypatch.setattr(tasks, "usable_cpus", lambda: 2)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked from now on, as the caller sees them."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(tasks.os, "fork", counted_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail(exc):
    raise exc


def test_results_in_task_order(two_cpus, forks):
    # task i runs in worker i mod 2, and worker 0 is the caller
    caller = os.getpid()
    results = side_by_side([lambda i=i: (i, os.getpid()) for i in range(5)], jobs=8)
    assert [i for i, _ in results] == list(range(5))
    assert len(forks) == 1
    assert [pid for _, pid in results] == [caller, forks[0]] * 2 + [caller]
    assert_no_child_left()


@pytest.mark.parametrize("failing, raised", [
    ({1: ValueError("child")}, ValueError),
    ({0: KeyError("caller")}, KeyError),
    ({1: ValueError("child"), 2: KeyError("caller")}, ValueError),
    ({0: KeyError("caller"), 3: ValueError("child")}, KeyError),
], ids=["child", "caller", "child-first", "caller-first"])
def test_the_lowest_failing_task_is_raised(two_cpus, forks, failing, raised):
    task_list = [lambda i=i: fail(failing[i]) if i in failing else i for i in range(4)]
    with pytest.raises(raised):
        side_by_side(task_list, jobs=2)
    assert len(forks) == 1
    assert_no_child_left()


def test_dead_child_names_its_exit_status(two_cpus, forks):
    caller = os.getpid()

    def die():
        if os.getpid() == caller:
            raise AssertionError("this task must run in a child")
        os._exit(3)

    with pytest.raises(WorkerError, match="exit status 3"):
        side_by_side([lambda: 0.0, die], jobs=2)
    assert len(forks) == 1
    assert_no_child_left()


def test_interrupted_caller_stops_its_children(two_cpus, forks):
    started = time.monotonic()

    def interrupt():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        side_by_side([interrupt, lambda: time.sleep(60)], jobs=2)
    assert time.monotonic() - started < 30
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("why", ["one-cpu", "no-fork"])
def test_no_fork_where_it_cannot_help(monkeypatch, why):
    def no_fork():
        raise AssertionError("no fork expected")

    if why == "one-cpu":
        monkeypatch.setattr(tasks, "usable_cpus", lambda: 1)
        monkeypatch.setattr(tasks.os, "fork", no_fork)
    else:
        monkeypatch.setattr(tasks, "usable_cpus", lambda: 2)
        monkeypatch.delattr(tasks.os, "fork")
    caller = os.getpid()
    assert side_by_side([lambda i=i: (i, os.getpid()) for i in range(3)], jobs=3) == [
        (0, caller), (1, caller), (2, caller)]


def test_nested_call_runs_serially(two_cpus, forks):
    # each outer task makes an inner call of 2 tasks and reports how many
    # forks its process had seen after it: the caller sees the outer fork
    # alone, and the child's copy of the list, made before that fork was
    # recorded, stays empty
    def outer(i):
        inner = side_by_side([lambda j=j: 10 * i + j for j in range(2)], jobs=2)
        return inner, len(forks)

    results = side_by_side([lambda i=i: outer(i) for i in range(2)], jobs=2)
    assert results == [([0, 1], 1), ([10, 11], 0)]
    assert len(forks) == 1
    assert_no_child_left()


def test_usable_cpus_falls_back_to_cpu_count_then_one(monkeypatch):
    monkeypatch.delattr(tasks.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(tasks.os, "cpu_count", lambda: 3)
    assert tasks.usable_cpus() == 3
    monkeypatch.setattr(tasks.os, "cpu_count", lambda: None)
    assert tasks.usable_cpus() == 1
