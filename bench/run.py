#!/usr/bin/env python3
"""Benchmark of normetric: one workload per process, every output checked.

Run from the repository root:

    python3 bench/run.py --workload binary-study --seed 0 --seconds 10 --trace 0

Workloads: binary-study, cli-curve, ingest, expand (see workloads.py for
what each runs and why).  The run sets up the workload's inputs from the seed
at least three times and reports the median set-up time, then repeats rounds
of its operations until --seconds have passed (at least one round).

--trace 0 prints the end-to-end metrics:
  work_per_s   curve points (binary-study, cli-curve) or CSV rows read and
               written (ingest, expand) per second of operation time, the
               median over rounds
  peak_rss_mb  peak resident memory of this process through set-up and the
               first round
  setup_s      importing normetric and making the inputs, median of the set-ups
Both times are in seconds of a reference-speed host: each operation and each
set-up is bracketed by a fixed probe, and its time is scaled by the probe's
reference time over its measured time (see timing.py for why).  The details
line also gives the wall-clock figures.
--trace 1 runs each round untraced and then traced with every public
function wrapped, and prints the per-layer metrics of tracing.py.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the details: environment,
output digests, their comparison with reference.json, and the binary-study
wins.  An operation fails when it raises, exits non-zero or fails its
output check; failed_ops = failed / attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
# Set-up runs at least SETUP_REPEATS times and, when it is quick, until
# SETUP_MIN_S have passed, so the median of a short set-up is not one sample.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 20


def prepare() -> None:
    """Pin BLAS threads to the usable cores and put src on the path.

    Must run before numpy is imported.  Raises FileNotFoundError when the
    checkout holds no normetric sources.
    """
    if not os.path.isfile(os.path.join(SRC, "normetric", "__init__.py")):
        raise FileNotFoundError(f"normetric sources not found under {SRC}")
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores
    sys.path.insert(0, SRC)


def fresh_normetric():
    """Import normetric from this checkout's src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "normetric" or m.startswith("normetric.")]:
        del sys.modules[name]
    nm = importlib.import_module("normetric")
    importlib.import_module("normetric.cli")
    if not os.path.abspath(nm.__file__).startswith(SRC + os.sep):
        raise ImportError(f"normetric imported from {nm.__file__}, not from {SRC}")
    return nm


def blas_info(np) -> dict:
    import ctypes
    import glob

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": None, "threads_source": "OPENBLAS_NUM_THREADS"}
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info.update(threads=getter(), threads_source="openblas_get_num_threads")
                    return info
    info["threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    return info


def environment(np) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
    }


def compare_with_reference(name: str, seed: int, digests: dict, wins: dict) -> dict:
    """Changes in outputs against reference.json; reported, never failures."""
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(name, {})
    out = {}
    if "wins" in reference:
        expected = reference["wins"]
        out["wins_changed"] = sorted(s for s, won in wins.items() if won != expected[s])
        out["reference_wins"] = f"{sum(expected)}/{len(expected)} on seeds 0-{len(expected) - 1}"
    if "digests" in reference:
        expected = reference["digests"].get(str(seed))
        if expected is None:
            out["digests"] = f"no reference for seed {seed}"
        else:
            changed = sorted(k for k in expected.keys() | digests.keys() if expected.get(k) != digests.get(k))
            out["digests"] = "same as reference" if not changed else {"changed": changed}
    return out


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None, workdir: str | None = None) -> dict:
    """Set up and measure one workload; returns the result and its details.

    Inputs are written to workdir, by default a directory of its own under
    .bench_work in the checkout, which is deleted afterwards.
    """
    work_root = os.path.join(ROOT, ".bench_work")
    workdir = workdir or os.path.join(work_root, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _measure(name, seed, seconds, trace, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # succeeds only when no other run is using it


def _measure(name: str, seed: int, seconds: float, trace: bool, sizes, workdir: str) -> dict:
    import tracing
    from timing import Tracer, at_reference_speed, probe
    from workloads import FULL, WORKLOADS, Round

    sizes = sizes or FULL
    workload = WORKLOADS[name]
    setup_times, setup_reference = [], []
    nm = inputs = None
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS
    ):
        inputs = None
        gc.collect()
        setup_tracer = Tracer()
        before = probe()
        start = time.perf_counter()
        nm = fresh_normetric()
        inputs = workload.setup(nm, workdir, seed, sizes, setup_tracer)
        setup_times.append(time.perf_counter() - start)
        setup_reference.append(at_reference_speed(setup_times[-1], before, probe()))
    gc.collect()

    first_digests: dict = {}
    rounds = {False: [], True: []}
    peak_rss_mb = None
    missing: list = []
    start = time.perf_counter()
    index = 0
    while True:
        for traced in (False, True) if trace else (False,):
            rnd = Round(nm, Tracer(), first_digests)
            restore, missing = tracing.install(rnd.tracer, nm) if traced else (None, missing)
            try:
                workload.round(rnd, inputs, seed, index, sizes)
            finally:
                if restore is not None:
                    restore()
            rounds[traced].append(rnd)
            if peak_rss_mb is None:
                # after set-up and one round: later rounds add only allocator
                # growth, and how many rounds fit in --seconds varies
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        index += 1
        if time.perf_counter() - start >= seconds:
            break

    every = rounds[False] + rounds[True]
    ops = [op for rnd in every for op in rnd.ops]
    failed = [op for op in ops if op.problems]
    wins = {s: won for rnd in every for s, won in rnd.wins.items()}

    def op_seconds(rnd) -> float:
        return sum(op.seconds for op in rnd.ops)

    def reference_seconds(rnd) -> float:
        return sum(op.reference_seconds for op in rnd.ops)

    def rate(rnd, seconds) -> float:
        return sum(op.work for op in rnd.ops if not op.problems) / seconds

    rates = [rate(rnd, reference_seconds(rnd)) for rnd in rounds[False]]
    if trace:
        metrics = tracing.layer_metrics(
            [(rnd.tracer, reference_seconds(rnd) / op_seconds(rnd)) for rnd in rounds[True]],
            [reference_seconds(rnd) for rnd in rounds[False]],
            (setup_tracer, setup_reference[-1] / setup_times[-1]),
        )
    else:
        metrics = {
            "work_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_reference), "s"),
        }
    digests = rounds[False][0].digests
    details = {
        "workload": name,
        "seed": seed,
        "rounds": len(rounds[False]),
        "work_unit": workload.unit,
        "round_rates": rates,
        "round_rates_wall_clock": [rate(rnd, op_seconds(rnd)) for rnd in rounds[False]],
        "setup_s_wall_clock": statistics.median(setup_times),
        "failed_ops": len(failed) / len(ops),
        "failures": [f"{op.name}: {'; '.join(op.problems)}" for op in failed][:20],
        "digests": digests,
        "wins": {str(s): won for s, won in sorted(wins.items())},
        "untraced_sites": missing,
    }
    if sizes == FULL:
        details["vs_reference"] = compare_with_reference(name, seed, digests, wins)
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "details": details,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["binary-study", "cli-curve", "ingest", "expand"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        prepare()
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    details = result.pop("details")
    details["environment"] = environment(np)

    unit = details["work_unit"]
    print(f"{args.workload} seed {args.seed}: {details['rounds']} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for key, metric in result["metrics"].items():
        label = f"{key} ({unit}_per_s)" if key == "work_per_s" else key
        print(f"  {label:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed_ops':44s} {details['failed_ops']:14.6g} ratio")
    for failure in details["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
