"""Golden outputs: fixed-seed CLI output pinned byte for byte.

Each case runs one `normetric` command in-process on small data from the
package's seeded generators and compares every byte it writes with a file
under tests/golden/.  The cases cover `curve` (series CSV and report JSON)
for all four tasks, `curve` with no output flag (report on stdout) and with
`--series` alone, `evaluate` for all four tasks and a `report` replay.

A change that alters these outputs on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden/ then shows what moved.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from normetric import TaskKind, make_binary_classification, make_blobs, make_regression, save_csv
from normetric.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _datasets() -> dict:
    """The curve inputs, one dataset per task."""
    return {
        "binary": make_binary_classification(400, d=4, seed=3),
        "multiclass": make_blobs(400, d=3, n_classes=3, seed=1, spread=2.5, weights=[0.5, 0.3, 0.2]),
        "clustering": make_blobs(400, d=2, n_classes=3, seed=2, spread=2.5, task=TaskKind.CLUSTERING),
        "regression": make_regression(400, d=3, seed=4, noise=3.0),
    }


# name -> (task, dataset, extra curve flags)
CURVES = {
    "binary": ("binary", "binary", ["--epochs", "100", "--lr", "0.5"]),
    "multiclass": ("multiclass", "multiclass", ["--epochs", "80", "--smooth-window", "3"]),
    "clustering": ("clustering", "clustering", []),
    "clustering-k5": ("clustering", "clustering", ["--k", "5"]),
    "regression": ("regression", "regression", ["--smooth-window", "1"]),
}


def _num(value: float) -> str:
    return repr(float(value))


def _predictions() -> dict:
    """Predictions CSV text per task, derived from the seeded generators.

    Only +, -, *, / and comparisons shape the values, so the files are the
    same bits on any IEEE-754 platform.
    """
    out = {}

    ds = make_binary_classification(120, d=3, seed=5)
    x0 = ds.features[:, 0]
    pred = (x0 > -0.3).astype(int)
    prob = 0.5 + np.minimum(np.abs(x0), 2.0) / 4.0
    out["binary"] = ["y_true,y_pred,y_prob"] + [
        f"{int(t)},{int(p)},{_num(q)}" for t, p, q in zip(ds.target, pred, prob)
    ]

    ds = make_blobs(90, d=2, n_classes=3, seed=6)
    raw = np.column_stack([1.0 + np.abs(ds.features[:, 0]), 1.0 + np.abs(ds.features[:, 1]), np.full(ds.n, 1.5)])
    probs = raw / raw.sum(axis=1, keepdims=True)
    out["multiclass"] = ["y_true,y_pred,p_0,p_1,p_2"] + [
        ",".join([str(int(t)), str(int(np.argmax(p)))] + [_num(v) for v in p])
        for t, p in zip(ds.target, probs)
    ]

    ds = make_regression(80, d=3, seed=7)
    out["regression"] = ["y_true,y_pred"] + [
        f"{_num(t)},{_num(t + 8.0 * x)}" for t, x in zip(ds.target, ds.features[:, 0])
    ]

    ds = make_blobs(90, d=2, n_classes=3, seed=8, task=TaskKind.CLUSTERING)
    ids = 2 * (ds.features[:, 0] > 0) + (ds.features[:, 1] > 0) - 1  # -1 plays a noise id
    out["clustering"] = ["y_true,y_pred"] + [f"{int(t)},{int(c)}" for t, c in zip(ds.target, ids)]

    return {task: "\n".join(lines) + "\n" for task, lines in out.items()}


def _run(argv: list) -> str:
    """Run one command in-process; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code == 0, err.getvalue()
    return out.getvalue()


def produce(workdir: str) -> dict:
    """Every golden output, keyed by its file name under tests/golden/."""
    outputs = {}
    data = {}
    for name, ds in _datasets().items():
        data[name] = (os.path.join(workdir, f"{name}.csv"), ds)
        save_csv(ds, data[name][0])

    def curve(task: str, source: str, *flags) -> str:
        path, ds = data[source]
        return _run([
            "curve", "--task", task, "--data", path, "--target-column", ds.target_name,
            "--start", 20, "--stop", 300, "--step", 40, "--seed", 7, *flags,
        ])

    def read(path: str) -> None:
        with open(path, encoding="utf-8", newline="") as fh:
            outputs[os.path.basename(path)] = fh.read()

    for name, (task, source, extra) in CURVES.items():
        series = os.path.join(workdir, f"curve-{name}.series.csv")
        report = os.path.join(workdir, f"curve-{name}.report.json")
        curve(task, source, "--series", series, "--report", report, *extra)
        read(series)
        read(report)

    # with no output flag the report goes to stdout; with --series alone nothing does
    outputs["curve-regression-stdout.report.json"] = curve("regression", "regression")
    series = os.path.join(workdir, "curve-binary-series-only.series.csv")
    assert curve("binary", "binary", "--series", series, "--epochs", 100, "--smooth-window", 7) == ""
    read(series)

    outputs["report-binary-before.json"] = _run([
        "report", "--series", os.path.join(workdir, "curve-binary.series.csv"),
        "--d", 4, "--mad-scope", "before",
    ])

    for task, text in _predictions().items():
        path = os.path.join(workdir, f"predictions-{task}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        outputs[f"evaluate-{task}.json"] = _run(
            ["evaluate", "--task", task, "--predictions", path, "--d", 6, "--n", 90]
        )
    return outputs


def _golden_names() -> list:
    return sorted(os.listdir(GOLDEN)) if os.path.isdir(GOLDEN) else []


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict:
    return produce(str(tmp_path_factory.mktemp("golden")))


def test_golden_files_match_the_cases(outputs):
    assert sorted(outputs) == _golden_names()


@pytest.mark.parametrize("name", _golden_names())
def test_output_is_byte_identical(name, outputs):
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        assert outputs[name] == fh.read()


def regenerate() -> None:
    """Rewrite tests/golden/ from the current sources."""
    with tempfile.TemporaryDirectory() as workdir:
        outputs = produce(workdir)
    os.makedirs(GOLDEN, exist_ok=True)
    for stale in _golden_names():
        os.remove(os.path.join(GOLDEN, stale))
    for name, text in outputs.items():
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(f"wrote {len(outputs)} files to {GOLDEN}")


if __name__ == "__main__":
    regenerate()
