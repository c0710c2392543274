"""One policy for running a stage's independent jobs on every usable core, in forked worker processes."""

from __future__ import annotations

import os
from typing import Any, Callable, Iterator, Sequence

from .exceptions import WorkerError

_worker: tuple = ()  # in a worker process: (the function each job runs, what the jobs share)


def _start_worker(*worker) -> None:
    global _worker
    _worker = worker


def _run_job(job: Any) -> Any:
    return _worker[0](_worker[1], job)


def map_on_cores(work: Callable, shared, jobs: Sequence, costs: Sequence, lost: Callable[[Any], str],
                 fork: bool = True) -> Iterator:
    """Yield work(shared, job) for each job in order, computed by one forked worker per usable core.

    The curve's fits, expand's neighbour scan and save_csv's blocks run here.  Workers inherit shared, so
    only a job goes out and its result comes back; each result is dropped here once it is yielded.  The
    costliest jobs go out first and results are yielded in job order, so a failure raises the first failing
    job's error.  The jobs run here, in order, if fork is false, with one usable core (os.sched_getaffinity)
    or job, or in a daemonic process (which may not start processes).  A worker that dies raises
    WorkerError, worded by lost(the first job left undone).  Closing the generator shuts the workers down.
    """
    workers = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, len(jobs))
    if fork and workers > 1:
        import multiprocessing  # imported only to fork: every command would pay some 30 ms for it at start-up

        fork = not multiprocessing.current_process().daemon
    if not fork or workers <= 1:
        yield from (work(shared, job) for job in jobs)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    executor = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker, (work, shared))
    at = 0
    try:
        order = sorted(range(len(jobs)), key=costs.__getitem__, reverse=True)
        futures = {i: executor.submit(_run_job, jobs[i]) for i in order}
        for at in range(len(jobs)):
            yield futures.pop(at).result()
    except BrokenProcessPool as exc:
        raise WorkerError(f"a worker process died before {lost(jobs[at])} (killed, or out of memory)") from exc
    finally:
        executor.shutdown(cancel_futures=True)
