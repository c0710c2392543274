"""What the tests check of the fork helper's worker processes: that none is left, and how many each call forked."""

import os
import selectors

import pytest


def assert_no_child():
    """No child of this process is left, running or unreaped: os.waitpid finds none to wait for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def recorded_pools(monkeypatch):
    """The worker count of every forked map_on_cores call from here on.

    A forked call makes one selector before it forks its workers, so each count is the children this process
    forked after a selector was made and before the next.
    """
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

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(selectors, "DefaultSelector", Recorded)
    return pools
