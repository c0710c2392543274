"""The package's export list, each module's __all__ joined once, and what importing the package costs."""

import os
import subprocess
import sys

import normetric
from normetric import data, exceptions, factors, harness, learners, metrics, synthetic


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
    """Python 3.12+ warns when a process with live threads forks; -W error turns any warning into a failure."""
    script = f"""
import concurrent.futures, os
from normetric import TaskKind, data, make_blobs, run_curve, schedule, synthetic_expand
os.sched_getaffinity = lambda pid: {{0, 1}}
data._FORK_BLOCKS, data._FORK_SAVE_CELLS, data._BLOCK_ROWS = 1, 1, 100
pools = []
class Recorded(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args):
        pools.append(args[0])
        super().__init__(*args)
concurrent.futures.ProcessPoolExecutor = Recorded
ds = make_blobs(300, d=3, n_classes=2, seed=0, task=TaskKind.BINARY_CLASSIFICATION)
run_curve(ds, schedule(40, 80, 40), TaskKind.BINARY_CLASSIFICATION, seed=1)
data.save_csv(synthetic_expand(ds, 400, 5, seed=2), {str(tmp_path / "big.csv")!r})
print(pools)
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(normetric.__file__))}
    command = [sys.executable, "-X", "dev", "-W", "error", "-c", script]
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[2, 2, 2]\n")
