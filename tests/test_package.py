"""The package's export list, each module's __all__ joined once, what importing the package costs, and how
the fork helper reaches its workers."""

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys

import numpy as np

import normetric
from normetric import data, exceptions, factors, harness, learners, metrics, synthetic
from normetric._fork import map_on_cores


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
    """multiprocessing and concurrent.futures (some 30 ms) are imported only when a stage forks."""
    script = """
import _posixsubprocess, os, sys
def started(*args, **kwargs):
    raise AssertionError("a process was started")
for module, name in [(os, "fork"), (os, "forkpty"), (os, "posix_spawn"), (os, "posix_spawnp"), (os, "system"),
                     (_posixsubprocess, "fork_exec")]:
    setattr(module, name, started)
import normetric, normetric.cli
print(sorted(name for name in sys.modules if name.split(".")[0] in ("multiprocessing", "concurrent")))
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(normetric.__file__))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


def test_the_forked_stages_run_without_a_warning_under_dev_mode(tmp_path):
    """Python 3.12+ warns when a process with live threads forks; -W error turns any warning into a failure, and
    -X dev warns of a file never closed, as a read handed to csv.reader after its forked blocks could leave one."""
    script = f"""
import concurrent.futures, os, pathlib
from normetric import TaskKind, data, harness, make_blobs, run_curve, schedule, synthetic_expand
os.sched_getaffinity = lambda pid: {{0, 1}}
data._FORK_BLOCKS, data._FORK_SAVE_CELLS, data._FORK_READ_BYTES, data._BLOCK_ROWS = 1, 1, 1, 100
harness._CHUNK_BYTES = 1
pools = []
class Recorded(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args):
        pools.append(args[0])
        super().__init__(*args)
concurrent.futures.ProcessPoolExecutor = Recorded
ds = make_blobs(300, d=3, n_classes=2, seed=0, task=TaskKind.BINARY_CLASSIFICATION)
run_curve(ds, schedule(40, 80, 40), TaskKind.BINARY_CLASSIFICATION, seed=1)
data.save_csv(synthetic_expand(ds, 400, 5, seed=2), {str(tmp_path / "big.csv")!r})
data.load_csv({str(tmp_path / "big.csv")!r}, ds.target_name, ds.task)
header, column = data.read_columns({str(tmp_path / "big.csv")!r}, "series file")
[column(name) for name in header]
lines = pathlib.Path({str(tmp_path / "big.csv")!r}).read_text().splitlines(True)
lines[251] = '"' + lines[251].replace(",", '",', 1)  # csv.reader reads from the third of four blocks
pathlib.Path({str(tmp_path / "quoted.csv")!r}).write_text("".join(lines))
header, column = data.read_columns({str(tmp_path / "quoted.csv")!r}, "series file")
[column(name) for name in header]
print(pools)
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(normetric.__file__))}
    command = [sys.executable, "-X", "dev", "-W", "error", "-c", script]
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[2, 2, 2, 2, 2, 2]\n")


def test_work_reaches_the_workers_by_fork_and_is_never_pickled(monkeypatch):
    """A lambda cannot be pickled: a helper that sent work with each job, the array with it, fails here."""
    features = np.arange(12.0).reshape(4, 3)
    pools = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args):
            pools.append(max_workers)
            super().__init__(max_workers, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    work = lambda job: features[job].tolist()  # noqa: E731
    assert list(map_on_cores(work, [3, 1, 2], "job {} was done".format)) == [work(3), work(1), work(2)]
    assert pools == [3]
    assert multiprocessing.active_children() == []
