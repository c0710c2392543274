"""One policy for running a stage's independent jobs on every usable core, in forked worker processes."""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

from .exceptions import WorkerError

_worker: tuple = ()  # in a worker process: (the function each job runs, what the jobs share)


def _start_worker(*worker) -> None:
    global _worker
    _worker = worker


def _run_job(job: Any) -> Any:
    return _worker[0](_worker[1], job)


def map_on_cores(work: Callable, shared, jobs: Sequence, costs: Sequence, lost: str, fork: bool = True) -> list:
    """[work(shared, job) for job in jobs], on one forked worker per usable core (os.sched_getaffinity).

    Workers inherit shared, so only a job goes out and its result comes back.  The costliest jobs go first
    and results are read in job order, so a failure raises the first failing job's error.  The jobs run
    here, in order, if fork is false, with one usable core or job, or in a daemonic process (which may not
    start processes).  A worker that dies raises WorkerError, lost formatted by the first job left undone.
    """
    workers = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, len(jobs))
    if fork and workers > 1:
        import multiprocessing  # imported only to fork: every command would pay some 30 ms for it at start-up

        fork = not multiprocessing.current_process().daemon
    if not fork or workers <= 1:
        return [work(shared, job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    executor = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker, (work, shared))
    results: list = []
    try:
        order = sorted(range(len(jobs)), key=costs.__getitem__, reverse=True)
        futures = {at: executor.submit(_run_job, jobs[at]) for at in order}
        for at in range(len(jobs)):
            results.append(futures[at].result())
        return results
    except BrokenProcessPool as exc:
        message = f"a worker process died before {lost.format(jobs[len(results)])} (killed, or out of memory)"
        raise WorkerError(message) from exc
    finally:
        executor.shutdown(cancel_futures=True)
