"""One policy for running a stage's independent jobs on every usable core, in forked worker processes."""

from __future__ import annotations

import contextlib
import os
from typing import Any, Callable, Iterator, Sequence

from .exceptions import WorkerError


def map_on_cores(work: Callable, jobs: Sequence, lost: Callable[[Any], str]) -> Iterator:
    """Yield work(job) for each job in order, computed by one forked worker per usable core.

    The workers, forked up front, inherit work and jobs, never pickled: each reads a job's 8-byte index from its
    job pipe and answers on its result pipe with an 8-byte length and a pickle of (True, result) or (False, the
    exception raised).  Each job after the workers' first goes to whichever worker answers first; early results
    wait for their turn, so a failure raises the first failing job's error.  This is a stage's one fork decision:
    it forks with two jobs or more and two usable cores (os.sched_getaffinity) or more, and runs map(work, jobs)
    here otherwise, so the caller decides by the size of the jobs it makes.  A worker that dies, or an outcome
    that cannot be pickled there or unpickled here, raises WorkerError, worded by lost(the first job not yet
    yielded).  However the generator ends, every worker is killed and reaped, every pipe closed.
    """
    workers = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, len(jobs))
    if workers <= 1:
        yield from map(work, jobs)
        return
    import fcntl  # imported only to fork: every import at the top adds to every command's start-up
    import pickle
    import selectors
    import signal
    selector, pids, fds, running, done, todo = selectors.DefaultSelector(), [], [], {}, {}, iter(range(len(jobs)))

    def hand(job_fd: int) -> None:  # the next job left, to the worker that reads job_fd
        if (index := next(todo, None)) is not None:
            running[job_fd] = index
            with contextlib.suppress(BrokenPipeError):  # a worker just dead: its result pipe's end raises below
                os.write(job_fd, index.to_bytes(8, "little"))

    try:
        for _ in range(workers):
            fds += os.pipe()
            fds += os.pipe()
            job_in, job_out, result_in, result_out = fds[-4:]
            with contextlib.suppress(AttributeError, OSError):  # 1 MiB where Linux allows, so a worker seldom
                fcntl.fcntl(result_in, fcntl.F_SETPIPE_SZ, 2**20)  # waits on the caller: only time depends on it
            pids.append(os.fork())
            if not pids[-1]:
                _serve(work, jobs, job_in, result_out, fds, pickle.dumps)
            for fd in (job_in, result_out):
                os.close(fd)
                fds.remove(fd)
            selector.register(open(result_in, "rb", closefd=False), selectors.EVENT_READ, job_out)  # read(n): n bytes
            hand(job_out)
        for at in range(len(jobs)):
            while events := selector.select(0 if at in done else None):  # until job at is done, taking any result
                for key, _ in events:
                    size = int.from_bytes(head := key.fileobj.read(8), "little")
                    if len(head) < 8 or len(message := key.fileobj.read(size)) < size:
                        raise WorkerError(f"a worker process died before {lost(jobs[at])} (killed, or out of memory)")
                    done[running.pop(key.data)] = message
                    hand(key.data)
            try:
                ok, value = pickle.loads(done.pop(at))
            except Exception as exc:  # an exception that needs other arguments than its args to be built, say
                ok, value = None, repr(exc)
            if not ok:
                raise value if ok is False else WorkerError(
                    f"a worker process's outcome could not be passed back before {lost(jobs[at])}: {value}")
            yield value
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):  # reaped already, as with SIGCHLD ignored
                os.waitpid(pid, 0)
        selector.close()
        for fd in fds:
            os.close(fd)


def _serve(work: Callable, jobs: Sequence, job_fd: int, result_fd: int, fds: list, dumps: Callable) -> None:
    """A worker's life: close the pipe ends it does not use, then answer each job until its job pipe closes."""
    try:
        for fd in set(fds) - {job_fd, result_fd}:
            os.close(fd)
        results = open(result_fd, "wb")
        while index := os.read(job_fd, 8):
            try:
                outcome = True, work(jobs[int.from_bytes(index, "little")])
            except BaseException as exc:  # raised again in the caller, as the serial loop would raise it
                outcome = False, exc
            try:
                message = dumps(outcome)
            except Exception as exc:  # a result or error that cannot be pickled: its description goes instead
                message = dumps((None, repr(exc)))
            results.writelines((len(message).to_bytes(8, "little"), message))
            results.flush()
    finally:
        os._exit(0)
