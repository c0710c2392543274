"""The benchmark's four workloads: their inputs, timed operations and checks.

Each workload has a set-up, which makes its inputs from the seed (datasets in
memory, CSV files on disk), and a round: a fixed list of operations on those
inputs.  A run repeats rounds, so every round does the same amount of work
and the round's rate (work done per second spent inside operations) is
comparable across rounds, runs and commits.  Only the operations are timed;
checking their outputs happens between them.

Why these four:

* binary-study: the acceptance gate's 20-seed study through the library.
  Sigmoid gradient descent is nearly all of it, so a learner change shows
  in full and a data-layer change not at all.
* cli-curve: `curve` then `report` on small CSVs for the multiclass,
  clustering and regression tasks.  It covers the softmax, k-means and
  normal-equation paths and the series and report formatting; `load_csv`
  is a small share, so a change that costs small files shows here.
* ingest: a 200k-row `load_csv`/`save_csv` round trip with planted bad
  rows, and `evaluate` on 200k-row predictions files for all four tasks.
  Per-cell Python loops dominate and the learners do nothing.
* expand: `expand` of a 3-class CSV by 1000 rows.  Its neighbour scan is
  quadratic in the class sizes, so only this workload measures it; ingest
  scales with n and would hide it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from timing import Tracer, at_reference_speed, probe


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark measures, TINY is its smoke test."""

    d: int = 13  # features of the curve datasets; n* = 20 * d
    curve_rows: int = 1400
    curve_schedule: tuple = (80, 1000, 20)
    study_seeds: int = 20  # the acceptance gate's seeds 0..19
    ingest_rows: int = 200_000
    predict_rows: int = 200_000
    expand_per_class: int = 1000
    expand_added: int = 1000


FULL = Sizes()
TINY = Sizes(
    d=3,
    curve_rows=200,
    curve_schedule=(20, 120, 20),
    study_seeds=3,
    ingest_rows=300,
    predict_rows=300,
    expand_per_class=20,
    expand_added=15,
)

EVALUATE_D = 10
EVALUATE_N = 150  # below 20 * EVALUATE_D, so f > 1 in every evaluate output
COLORS = ("red", "green", "blue", "amber", "violet", "teal")


@dataclass
class Op:
    """One timed operation and whatever went wrong with it."""

    name: str
    seconds: float
    reference_seconds: float  # seconds scaled to the reference host speed
    work: int  # points or rows the operation completes when it succeeds
    problems: list = field(default_factory=list)


class Round:
    """The operations of one round, each timed as a span of one Tracer."""

    def __init__(self, nm, tracer: Tracer, first_digests: dict) -> None:
        self.nm = nm
        self.tracer = tracer
        self.ops: list[Op] = []
        self.digests: dict[str, str] = {}
        self.wins: dict[int, bool] = {}
        self._first_digests = first_digests

    def run(self, name: str, work: int, fn: Callable, *args):
        """Time fn(*args) as operation name; a raise is a failed operation."""
        before = probe()
        index = self.tracer.begin("op." + name)
        result = None
        problems = []
        try:
            result = fn(*args)
        except Exception as exc:  # the run goes on and counts the failure
            problems.append(f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        finally:
            span = self.tracer.end(index)
        op = Op(name, span.duration, at_reference_speed(span.duration, before, probe()), work, problems)
        self.ops.append(op)
        return op, result

    def cli(self, name: str, work: int, argv: list):
        """Time one `normetric` command run in this process; returns its stdout."""

        def invoke():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.nm.cli.main([str(arg) for arg in argv])
            return code, out.getvalue(), err.getvalue()

        op, result = self.run(name, work, invoke)
        if result is None:
            return op, None
        code, stdout, stderr = result
        if not check(op, code == 0, f"exit {code}: {stderr.strip()}"):
            return op, None
        return op, stdout

    def digest(self, op: Op, name: str, data) -> None:
        """Record a digest of an output; within a run every round must agree."""
        value = hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()[:16]
        self.digests[name] = value
        first = self._first_digests.setdefault(name, value)
        check(op, value == first, f"{name} differs from the run's first round")


def check(op: Op, ok: bool, message: str) -> bool:
    if not ok:
        op.problems.append(message)
    return ok


def read_output(op: Op, path: str, mode: str = "r"):
    """The file an operation wrote, or None (a failed check) when it is absent."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            return fh.read()
    except OSError as exc:
        check(op, False, f"cannot read output {path}: {exc}")
        return None


def remove_outputs(*paths: str) -> None:
    """Delete a previous round's outputs so a check never reads a stale file."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def first_appearance(labels: np.ndarray) -> np.ndarray:
    """Relabel classes so they first appear in the order 0, 1, 2, ...

    load_csv numbers classes that way, so a file written with such labels
    reads back to the same labels.
    """
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    code = np.empty(first.size, dtype=int)
    code[np.argsort(first)] = np.arange(first.size)
    return code[inverse]


def dataset_csv(features: np.ndarray, target: np.ndarray, class_targets: bool) -> str:
    """A dataset in the dialect save_csv writes: shortest round-trip floats."""
    names = [f"x{i}" for i in range(features.shape[1])]
    lines = [",".join(names + ["label" if class_targets else "y"])]
    for row, value in zip(features.tolist(), target.tolist()):
        lines.append(",".join(map(repr, row)) + "," + (str(int(value)) if class_targets else repr(value)))
    return "\n".join(lines) + "\n"


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_points(op: Op, rows: list, sizes: tuple, d: int) -> None:
    """Curve points as (size, base, adjusted, f, g, h) satisfy the composition.

    adjusted == min(1, base*f*g/h) up to rounding, and f == 1.0 exactly when
    the size is at least n* = 20*d.
    """
    check(op, tuple(row[0] for row in rows) == sizes, "curve sizes differ from the schedule")
    for size, base, adjusted, f, g, h in rows:
        check(op, 0.0 <= base <= 1.0, f"base {base} outside [0, 1] at size {size}")
        check(op, close(adjusted, min(1.0, base * f * g / h)), f"adjusted != min(1, base*f*g/h) at size {size}")
        check(op, (f == 1.0) == (size >= 20 * d), f"f = {f!r} at size {size}, n* = {20 * d}")


def schedule_sizes(sizes: Sizes) -> tuple:
    start, stop, step = sizes.curve_schedule
    return tuple(range(start, stop + 1, step))


# --------------------------------------------------------------------------
# binary-study


def setup_binary_study(nm, workdir: str, seed: int, sizes: Sizes, tracer: Tracer) -> dict:
    datasets = [
        tracer.call(
            "synthetic.make_binary_classification",
            nm.make_binary_classification, sizes.curve_rows, d=sizes.d, seed=s,
        )
        for s in range(sizes.study_seeds)
    ]
    return {"datasets": datasets, "schedule": nm.schedule(*sizes.curve_schedule)}


def round_binary_study(rnd: Round, inputs: dict, seed: int, index: int, sizes: Sizes) -> None:
    """One study of the gate: seeds rotate through 0..19 from the run's seed."""
    nm = rnd.nm
    study_seed = (seed + index) % sizes.study_seeds
    sched = inputs["schedule"]

    def study():
        points = nm.harness.run_curve(
            inputs["datasets"][study_seed], sched, nm.TaskKind.BINARY_CLASSIFICATION,
            nm.LearnerConfig(learning_rate=1.0), seed=study_seed,
        )
        return points, nm.harness.stability_report(points, d=sizes.d)

    op, result = rnd.run(f"study-{study_seed}", len(sched.sizes), study)
    if result is None:
        return
    points, report = result
    rows = [
        (p.train_size, p.base_metric, p.adjusted_metric,
         p.breakdown.dim_factor_f, p.breakdown.snr_factor_g, p.breakdown.imbalance_factor_h)
        for p in points
    ]
    check_points(op, rows, schedule_sizes(sizes), sizes.d)
    rnd.wins[study_seed] = report.adjusted.mad_from_target < report.initial.mad_from_target


# --------------------------------------------------------------------------
# cli-curve

def setup_cli_curve(nm, workdir: str, seed: int, sizes: Sizes, tracer: Tracer) -> dict:
    kinds = nm.TaskKind
    made = {
        "multiclass": tracer.call(
            "synthetic.make_blobs", nm.make_blobs,
            sizes.curve_rows, d=sizes.d, n_classes=4, seed=seed, spread=5.0,
        ),
        "clustering": tracer.call(
            "synthetic.make_blobs", nm.make_blobs,
            sizes.curve_rows, d=sizes.d, n_classes=3, seed=seed, spread=5.0, task=kinds.CLUSTERING,
        ),
        "regression": tracer.call(
            "synthetic.make_regression", nm.make_regression, sizes.curve_rows, d=sizes.d, seed=seed,
        ),
    }
    files = {}
    for task, ds in made.items():
        class_targets = task != "regression"
        target = first_appearance(ds.target) if class_targets else ds.target
        path = os.path.join(workdir, f"{task}.csv")
        write_text(path, dataset_csv(ds.features, target, class_targets))
        files[task] = path
    return {"files": files}


def parse_series(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    at = {name: rows[0].index(name) for name in ("train_size", "base_metric", "adjusted_metric", "f", "g", "h")}
    return [
        (int(row[at["train_size"]]),) + tuple(
            float(row[at[name]]) for name in ("base_metric", "adjusted_metric", "f", "g", "h")
        )
        for row in rows[1:]
    ]


def round_cli_curve(rnd: Round, inputs: dict, seed: int, index: int, sizes: Sizes) -> None:
    start, stop, step = sizes.curve_schedule
    n_points = len(schedule_sizes(sizes))
    for task, path in inputs["files"].items():
        stem = os.path.splitext(path)[0]
        series, report, replay = stem + ".series.csv", stem + ".report.json", stem + ".replay.json"
        remove_outputs(series, report, replay)
        op, out = rnd.cli(f"curve-{task}", n_points, [
            "curve", "--task", task, "--data", path,
            "--target-column", "y" if task == "regression" else "label",
            "--start", start, "--stop", stop, "--step", step, "--lr", "1.0", "--seed", seed,
            "--series", series, "--report", report,
        ])
        series_text, report_text = (None, None) if out is None else (read_output(op, series), read_output(op, report))
        if series_text is None or report_text is None:
            continue
        try:
            check_points(op, parse_series(series_text), schedule_sizes(sizes), sizes.d)
        except (ValueError, IndexError) as exc:
            check(op, False, f"unreadable series CSV: {exc}")
        rnd.digest(op, f"curve-{task}.series", series_text)
        rnd.digest(op, f"curve-{task}.report", report_text)

        op, out = rnd.cli(f"report-{task}", 0, ["report", "--series", series, "--d", sizes.d, "--report", replay])
        if out is not None:
            check(op, read_output(op, replay) == report_text, "report replay differs from the curve's report")


# --------------------------------------------------------------------------
# ingest

INGEST_TARGET = "label"


def _bad_rows(rng, n_numeric: int) -> list:
    """Rows load_csv must drop, two of each kind, as lists of cells."""

    def good():
        cells = [repr(float(v)) for v in rng.standard_normal(n_numeric)]
        return cells[:4] + [COLORS[0]] + cells[4:] + ["0"]

    rows = []
    for _ in range(2):
        rows.append(good()[:-1])  # a field short
        rows.append(good() + ["1.0"])  # a field over
        for cell in ("", "n/a", "inf"):  # numeric cell empty, unparseable, not finite
            row = good()
            row[1] = cell
            rows.append(row)
        row = good()
        row[4] = ""  # categorical cell empty
        rows.append(row)
        row = good()
        row[-1] = ""  # class label empty
        rows.append(row)
    return rows


def _write_predictions(path: str, columns: dict) -> None:
    names = list(columns)
    values = zip(*(columns[name].tolist() for name in names))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in values)


def setup_ingest(nm, workdir: str, seed: int, sizes: Sizes, tracer: Tracer) -> dict:
    rng = np.random.default_rng(seed)
    n = sizes.ingest_rows
    # eight numeric columns spanning magnitudes 1e-3..1e4, one categorical
    # column between them, the class label last
    numeric = rng.standard_normal((n, 8)) * 10.0 ** np.arange(-3, 5)
    colors = first_appearance(rng.integers(0, len(COLORS), n))
    labels = first_appearance(rng.integers(0, 5, n))
    header = "x0,x1,x2,x3,color,x4,x5,x6,x7," + INGEST_TARGET
    bad = _bad_rows(rng, 8)
    bad_at = set(rng.choice(n, size=len(bad), replace=False).tolist())

    path = os.path.join(workdir, "ingest.csv")
    saved = hashlib.sha256((header + "\n").encode())  # what save_csv must write
    next_bad = iter(bad)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i, (row, color, label) in enumerate(zip(numeric.tolist(), colors.tolist(), labels.tolist())):
            if i in bad_at:
                fh.write(",".join(next(next_bad)) + "\n")
            cells = list(map(repr, row))
            head, tail = ",".join(cells[:4]), ",".join(cells[4:])
            fh.write(f"{head},{COLORS[color]},{tail},{label}\n")
            saved.update(f"{head},{float(color)!r},{tail},{label}\n".encode())

    expected = np.column_stack([numeric[:, :4], colors.astype(float), numeric[:, 4:]])
    inputs = {
        "csv": path,
        "rows_read": n + len(bad),
        "n_bad": len(bad),
        "features": expected,
        "labels": labels,
        "saved_sha256": saved.hexdigest(),
        "out": os.path.join(workdir, "ingest.saved.csv"),
        "predictions": {},
    }

    # predictions carry three decimals, as exported scores usually do;
    # multiclass rows are thousandths that sum to 1000
    m = sizes.predict_rows
    y2 = (rng.random(m) < 0.3).astype(int)
    p2 = np.where(rng.random(m) < 0.85, y2, 1 - y2)
    thousandths = np.floor(1000 * rng.dirichlet(np.ones(4), size=m)).astype(int)
    thousandths[np.arange(m), thousandths.argmax(axis=1)] += 1000 - thousandths.sum(axis=1)
    probs = thousandths / 1000
    p4 = probs.argmax(axis=1)
    y4 = np.where(rng.random(m) < 0.7, p4, rng.integers(0, 4, m))
    true_thousandths = rng.integers(5000, 35000, m)
    true_reg = true_thousandths / 1000
    pred_reg = (true_thousandths + rng.integers(-2000, 2000, m)) / 1000
    yc = rng.integers(0, 4, m)
    pc = np.where(rng.random(m) < 0.7, yc, rng.integers(0, 5, m))
    tables = {
        "binary": ({"y_true": y2, "y_pred": p2, "y_prob": rng.integers(500, 1001, m) / 1000},
                   float(np.mean(y2 == p2))),
        "multiclass": ({"y_true": y4, "y_pred": p4, **{f"p_{c}": probs[:, c] for c in range(4)}},
                       float(np.mean(y4 == p4))),
        "regression": ({"y_true": true_reg, "y_pred": pred_reg},
                       max(0.0, 1.0 - float(np.mean(np.abs(pred_reg - true_reg) / np.abs(true_reg))))),
        "clustering": ({"y_true": yc, "y_pred": pc}, None),
    }
    for task, (columns, base) in tables.items():
        pred_path = os.path.join(workdir, f"predictions.{task}.csv")
        _write_predictions(pred_path, columns)
        inputs["predictions"][task] = (pred_path, base)
    return inputs


def check_evaluation(op: Op, text: str, expected_base: Optional[float]) -> None:
    """The evaluate JSON lies in [0, 1] and agrees with its own factors."""
    try:
        out = {key: float(value) for key, value in json.loads(text).items()}
        base, f, g, h, norm = (out[k] for k in ("base", "dim_factor_f", "snr_factor_g", "imbalance_factor_h", "normalized"))
        snr = out["snr_normalized"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        check(op, False, f"unreadable evaluate JSON: {exc}")
        return
    check(op, 0.0 <= base <= 1.0 and 0.0 <= norm <= 1.0, f"base {base} or normalized {norm} outside [0, 1]")
    check(op, close(norm, min(1.0, base * f * g / h)), "normalized != min(1, base*f*g/h)")
    check(op, f > 1.0, f"f = {f} with n below 20*d")
    check(op, 0.0 <= snr <= 0.5 and close(g, 1.0 + snr), f"g = {g} does not match normalized SNR {snr}")
    check(op, h >= 1.0, f"h = {h} below 1")
    if expected_base is not None:
        check(op, math.isclose(base, expected_base, rel_tol=1e-9), f"base {base} != expected {expected_base}")


def round_ingest(rnd: Round, inputs: dict, seed: int, index: int, sizes: Sizes) -> None:
    nm = rnd.nm
    op, ds = rnd.run("load_csv", inputs["rows_read"], nm.data.load_csv,
                     inputs["csv"], INGEST_TARGET, nm.TaskKind.MULTICLASS_CLASSIFICATION)
    if ds is not None:
        check(op, ds.n_dropped == inputs["n_bad"], f"dropped {ds.n_dropped} rows, planted {inputs['n_bad']}")
        check(op, np.array_equal(ds.features, inputs["features"]), "loaded features differ from the written ones")
        check(op, np.array_equal(ds.target, inputs["labels"]), "loaded labels differ from the written ones")
        remove_outputs(inputs["out"])
        op, _ = rnd.run("save_csv", ds.n, nm.data.save_csv, ds, inputs["out"])
        saved = None if op.problems else read_output(op, inputs["out"], "rb")
        if saved is not None:
            check(op, hashlib.sha256(saved).hexdigest() == inputs["saved_sha256"],
                  "saved CSV is not the bitwise round trip of the kept rows")
            rnd.digest(op, "save_csv", saved)
        del ds
    for task, (path, base) in inputs["predictions"].items():
        op, out = rnd.cli(f"evaluate-{task}", sizes.predict_rows, [
            "evaluate", "--task", task, "--predictions", path, "--d", EVALUATE_D, "--n", EVALUATE_N,
        ])
        if out is not None:
            check_evaluation(op, out, base)
            rnd.digest(op, f"evaluate-{task}", out)


# --------------------------------------------------------------------------
# expand


def setup_expand(nm, workdir: str, seed: int, sizes: Sizes, tracer: Tracer) -> dict:
    rng = np.random.default_rng(seed)
    m, d = sizes.expand_per_class, 8
    labels = first_appearance(rng.permutation(np.repeat(np.arange(3), m)))
    centers = rng.uniform(-3.0, 3.0, (3, d))
    features = centers[labels] + rng.standard_normal((3 * m, d))
    text = dataset_csv(features, labels, class_targets=True)
    path = os.path.join(workdir, "expand.csv")
    write_text(path, text)
    return {"csv": path, "text": text, "n": 3 * m, "out": os.path.join(workdir, "expand.out.csv")}


def round_expand(rnd: Round, inputs: dict, seed: int, index: int, sizes: Sizes) -> None:
    n, target_n = inputs["n"], inputs["n"] + sizes.expand_added
    remove_outputs(inputs["out"])
    op, out = rnd.cli("expand", n + target_n, [
        "expand", "--task", "multiclass", "--data", inputs["csv"], "--target-column", "label",
        "--target-n", target_n, "--out", inputs["out"], "--seed", seed,
    ])
    text = None if out is None else read_output(op, inputs["out"])
    if text is None:
        return
    check(op, text.startswith(inputs["text"]), "expanded CSV does not keep the original rows bitwise")
    check(op, text.count("\n") == target_n + 1, f"expanded CSV has {text.count(chr(10)) - 1} rows, expected {target_n}")
    rnd.digest(op, "expand", text)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one unit of work is: a curve point or a CSV row
    setup: Callable
    round: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("binary-study", "points", setup_binary_study, round_binary_study),
        Workload("cli-curve", "points", setup_cli_curve, round_cli_curve),
        Workload("ingest", "rows", setup_ingest, round_ingest),
        Workload("expand", "rows", setup_expand, round_expand),
    )
}
