"""The package's export list, each module's __all__ joined once, what importing the package costs, and how
the fork helper reaches its workers and ends."""

import contextlib
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import normetric
from normetric import NormetricError, WorkerError, data, exceptions, factors, harness, learners, metrics, synthetic
from normetric._fork import map_on_cores
from workers import assert_no_child, recorded_pools


def test_exports_are_the_module_lists_joined():
    modules = (exceptions, metrics, factors, data, learners, synthetic, harness)
    joined = [name for module in modules for name in module.__all__]
    assert normetric.__all__ == joined + ["__version__"]
    assert len(set(normetric.__all__)) == len(normetric.__all__)
    for name in normetric.__all__:
        assert getattr(normetric, name) is not None
    for module in modules:
        for name in module.__all__:
            assert getattr(normetric, name) is getattr(module, name)


def test_import_starts_no_process_and_leaves_the_process_pool_modules_out():
    """multiprocessing and concurrent.futures (some 30 ms) are imported neither by the package nor by a stage that
    forks, here a curve on two workers."""
    script = """
import _posixsubprocess, os, sys
fork, forks = os.fork, []
def started(*args, **kwargs):
    raise AssertionError("a process was started")
for module, name in [(os, "fork"), (os, "forkpty"), (os, "posix_spawn"), (os, "posix_spawnp"), (os, "system"),
                     (_posixsubprocess, "fork_exec")]:
    setattr(module, name, started)
import normetric, normetric.cli
print(sorted(name for name in sys.modules if name.split(".")[0] in ("multiprocessing", "concurrent")))
from normetric import TaskKind, harness, make_binary_classification, run_curve, schedule
os.fork, os.sched_getaffinity, harness._CHUNK_BYTES = lambda: forks.append(1) or fork(), lambda pid: {0, 1}, 1
run_curve(make_binary_classification(200, d=3, seed=0), schedule(40, 120, 40), TaskKind.BINARY_CLASSIFICATION, seed=1)
print(len(forks), sorted(name for name in sys.modules if name.split(".")[0] in ("multiprocessing", "concurrent")))
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(normetric.__file__))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n2 []\n")


def test_the_forked_stages_run_without_a_warning_under_dev_mode(tmp_path):
    """Python 3.12+ warns when a process with live threads forks; -W error turns any warning into a failure, and
    -X dev warns of a file never closed, as a read handed to csv.reader after its forked blocks could leave one."""
    script = f"""
import os, pathlib, selectors
from normetric import TaskKind, data, harness, make_blobs, run_curve, schedule, synthetic_expand
os.sched_getaffinity = lambda pid: {{0, 1}}
data._BLOCK_ROWS = 100
harness._CHUNK_BYTES = 1
pools, fork = [], os.fork  # each forked call's workers: the forks after its one selector is made
def counted():
    pid = fork()
    if pid and pools:
        pools[-1] += 1
    return pid
class Recorded(selectors.DefaultSelector):
    def __init__(self):
        pools.append(0)
        super().__init__()
os.fork, selectors.DefaultSelector = counted, Recorded
ds = make_blobs(300, d=3, n_classes=2, seed=0, task=TaskKind.BINARY_CLASSIFICATION)
run_curve(ds, schedule(40, 80, 40), TaskKind.BINARY_CLASSIFICATION, seed=1)
data.save_csv(synthetic_expand(ds, 400, 5, seed=2), {str(tmp_path / "big.csv")!r})
data.load_csv({str(tmp_path / "big.csv")!r}, ds.target_name, ds.task)
header, read = data.read_columns({str(tmp_path / "big.csv")!r}, "series file")
column = read(dict.fromkeys(header))
[column(name) for name in header]
lines = pathlib.Path({str(tmp_path / "big.csv")!r}).read_text().splitlines(True)
lines[251] = '"' + lines[251].replace(",", '",', 1)  # csv.reader reads from the third of four blocks
pathlib.Path({str(tmp_path / "quoted.csv")!r}).write_text("".join(lines))
header, read = data.read_columns({str(tmp_path / "quoted.csv")!r}, "series file")
column = read(dict.fromkeys(header))
[column(name) for name in header]
print(pools)
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(normetric.__file__))}
    command = [sys.executable, "-X", "dev", "-W", "error", "-c", script]
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[2, 2, 2, 2, 2]\n")


def test_work_reaches_the_workers_by_fork_and_is_never_pickled(monkeypatch):
    """A lambda cannot be pickled: a helper that sent work with each job, the array with it, fails here."""
    features = np.arange(12.0).reshape(4, 3)
    pools = recorded_pools(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    work = lambda job: features[job].tolist()  # noqa: E731
    assert list(map_on_cores(work, [3, 1, 2], "job {} was done".format)) == [work(3), work(1), work(2)]
    assert pools == [3]
    assert_no_child()


def _pools_on_cores(monkeypatch, cores):
    """This many usable cores, and the worker count of each forked call from here on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    return recorded_pools(monkeypatch)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _raise_timeout(signum, frame):
    raise TimeoutError("map_on_cores still waiting after 60 s")


@contextlib.contextmanager
def _within_a_minute():
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("cores", [2, 3])
def test_closing_early_or_failing_in_the_caller_leaves_no_worker_and_no_pipe(monkeypatch, cores):
    pools = _pools_on_cores(monkeypatch, cores)
    before = _open_fds()
    results = map_on_cores(lambda job: 2 * job, range(10), "job {} was done".format)
    assert next(results) == 0
    results.close()
    assert_no_child()
    assert _open_fds() == before
    with pytest.raises(LookupError, match=r"^the caller failed at 4$"):
        for value in map_on_cores(lambda job: 2 * job, range(10), "job {} was done".format):
            if value == 4:
                raise LookupError(f"the caller failed at {value}")
    assert_no_child()
    assert _open_fds() == before
    assert pools == [cores, cores]


class TwoArguments(Exception):
    """Pickled as TwoArguments(first), so it cannot be unpickled."""

    def __init__(self, first, second):
        super().__init__(first, second)
        self.args = (first,)


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("error", [lambda: ValueError(lambda: 0), lambda: TwoArguments(1, 2)],
                         ids=["unpicklable", "not-unpicklable"])
def test_an_error_that_cannot_come_back_names_its_job(monkeypatch, cores, error):
    """An error holding a lambda fails in the worker's pickle, one whose __init__ needs two arguments in this
    process's unpickle; either is a WorkerError naming the job through lost."""
    pools = _pools_on_cores(monkeypatch, cores)

    def work(job):
        if job == 3:
            raise error()
        return job

    with _within_a_minute(), pytest.raises(WorkerError, match=r"^a worker process's outcome could not be passed "
                                                              r"back before job 3 was done: \w+Error\(") as caught:
        list(map_on_cores(work, range(6), "job {} was done".format))
    assert isinstance(caught.value, NormetricError)
    assert pools == [cores]
    assert_no_child()


@pytest.mark.parametrize("cores", [2, 3])
def test_results_larger_than_a_pipe_arrive_whole_and_in_job_order(monkeypatch, cores):
    """The first job ends last, so every other result comes early and waits for its turn."""
    pools = _pools_on_cores(monkeypatch, cores)
    parent = os.getpid()

    def work(job):
        if job == 5 and os.getpid() != parent:
            time.sleep(0.5)
        return bytes([job]) * (2**20 + 4099 * job)

    jobs = [5, 0, 7, 2, 1, 6]
    with _within_a_minute():
        got = list(map_on_cores(work, jobs, "job {} was done".format))
    assert got == [work(job) for job in jobs]
    assert pools == [cores]
    assert_no_child()
