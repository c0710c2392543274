"""The fork helper's worker processes as the tests see them: the usable cores a test sets, that no worker is left,
and how many each call forked."""

import multiprocessing
import os
import selectors

import pytest


def assert_no_child():
    """No child of this process is left, running or unreaped: os.waitpid finds none to wait for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def usable_cores(monkeypatch, cores):
    """os.sched_getaffinity reads these cores: a stage forks one worker per usable core; {0} means it runs here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cores))


def recorded_pools(monkeypatch):
    """The worker count of every forked map_on_cores call from here on.

    A forked call makes one selector before it forks its workers, so each count is the children this process
    forked after a selector was made and before the next.
    """
    return _recorded(monkeypatch.setattr)


def _recorded(setattr):
    pools, fork = [], os.fork

    def counted():
        pid = fork()
        if pid and pools:  # a worker's own fork returns 0
            pools[-1] += 1
        return pid

    class Recorded(selectors.DefaultSelector):
        def __init__(self):
            pools.append(0)
            super().__init__()

    setattr(os, "fork", counted)
    setattr(selectors, "DefaultSelector", Recorded)
    return pools


def in_pool_worker(stage, *args):
    """stage(*args) in a multiprocessing.Pool worker, a daemonic process: its result, and the worker count of every
    forked map_on_cores call it made there, where no child may be left once it returns."""
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        return pool.apply_async(_counted_in_daemon, (stage, args)).get(timeout=60)
    finally:
        pool.terminate()
        pool.join()


def _counted_in_daemon(stage, args):
    if not multiprocessing.current_process().daemon:
        raise AssertionError("a multiprocessing.Pool worker that is not daemonic")
    pools = _recorded(setattr)  # the pool worker's own os and selectors, for the rest of its short life
    result = stage(*args)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return result, pools
    raise AssertionError("a child is left in the pool worker")
