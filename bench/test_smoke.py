"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import TINY, WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

run.prepare()


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, trace, tmp_path):
    result = run.run(name, seed=3, seconds=0, trace=trace, sizes=TINY, workdir=str(tmp_path))
    assert result["details"]["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        share = result["metrics"]["trace.layer_share"]["value"]
        assert 0.9 < share <= 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "bench")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "expand", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
