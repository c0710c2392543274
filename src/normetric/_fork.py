"""One policy for running a stage's independent jobs on every usable core, in forked worker processes."""

from __future__ import annotations

import os
from typing import Any, Callable, Iterator, Sequence

from .exceptions import WorkerError

_work: Callable  # in a worker process: the function each job runs


def _start_worker(work: Callable) -> None:
    global _work
    _work = work


def _run_job(job: Any) -> Any:
    return _work(job)


def map_on_cores(work: Callable, jobs: Sequence, lost: Callable[[Any], str], fork: bool = True) -> Iterator:
    """Yield work(job) for each job in order, computed by one forked worker per usable core.

    The curve's chunks of consecutive sizes, expand's neighbour scan, save_csv's blocks and read_blocks's blocks
    (for load_csv and read_columns) run here.  Workers inherit work by fork, never pickled, so only a job goes
    out and its result comes back, dropped here once it is yielded.  Jobs go out and results are yielded in job
    order, so a failure raises the first failing job's error.  The jobs run here if fork is false, with one
    usable core (os.sched_getaffinity) or job, or in a daemonic process (which may not start processes).  A
    worker that dies raises WorkerError, worded by lost(the first job left undone).  Closing the generator
    shuts the workers down.
    """
    workers = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, len(jobs))
    if fork and workers > 1:
        import multiprocessing  # imported only to fork: every command would pay some 30 ms for it at start-up

        fork = not multiprocessing.current_process().daemon
    if not fork or workers <= 1:
        yield from map(work, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    executor = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker, (work,))
    at = 0
    try:
        futures = {i: executor.submit(_run_job, job) for i, job in enumerate(jobs)}
        for at in range(len(jobs)):
            yield futures.pop(at).result()
    except BrokenProcessPool as exc:
        raise WorkerError(f"a worker process died before {lost(jobs[at])} (killed, or out of memory)") from exc
    finally:
        executor.shutdown(cancel_futures=True)
