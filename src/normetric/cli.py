"""Command-line front end: evaluate, curve, expand, and report subcommands.

Exit codes: 0 success, 1 usage error (a numeric flag outside its own domain
included), 2 data error (bad or missing files), 3 numeric or domain error,
4 a worker process died (killed, or out of memory) during `curve`'s fits,
`expand`'s neighbour scan or write, or the read of any CSV of 3 MB or more.
Diagnostics go to stderr; results go to stdout or to the requested output
files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, load_csv, read_columns, save_csv, schedule, synthetic_expand
from .exceptions import DataError, NormetricError, WorkerError
from .factors import _ROW_SUMS, MetricBreakdown, TaskKind, evaluate, input_rules
from .harness import (
    LearnerConfig,
    format_report_json,
    format_series_csv,
    parse_series_csv,
    run_curve,
    stability_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_WORKER = 4


class _UsageError(Exception):
    """Flag combinations argparse alone cannot reject."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for data."""

    def error(self, message):
        # the prefix every diagnostic of this tool starts with, then the usage
        self.exit(EXIT_USAGE, f"normetric: error: {message}\n{self.format_usage()}")


def _flag_type(convert, holds, requirement: str):
    """An argparse type converting a flag's value and rejecting one outside its domain."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


_POSITIVE_INT = _flag_type(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _flag_type(int, lambda v: v >= 0, "an integer >= 0")
_ODD_INT = _flag_type(int, lambda v: v >= 1 and v % 2 == 1, "an odd integer >= 1")
_OPEN_FRACTION = _flag_type(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_POSITIVE_FINITE = _flag_type(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")


def _breakdown_json(breakdown: MetricBreakdown) -> str:
    def jsonable(value: float):
        return value if math.isfinite(value) else str(value)

    fields = dataclasses.asdict(breakdown)
    return json.dumps({key: jsonable(value) for key, value in fields.items()}, indent=2)


def _read_predictions(path: str, task: TaskKind) -> dict:
    """Load a predictions CSV into `evaluate`'s keyword arguments.

    Expected columns: y_true and y_pred always; y_prob (probability of the
    predicted class) for binary; p_0..p_{C-1} probability vectors for
    multiclass, each class number in ASCII digits with no leading zero
    (a p_02 column is a DataError).  Clustering files carry cluster ids,
    any integers, in y_pred.  Each column must hold its rule in
    factors.input_rules (binary labels 0 or 1, say), and each row of
    p_0..p_{C-1} must sum to 1 within 1e-6.  A breach is a DataError naming
    a data row: the one data.read_columns picks, or the first bad sum.

    The class sizes for h are counted from this file: y_true per class
    0..C-1 for classification, where each class must occur, and y_pred per
    cluster id for clustering.
    """
    header, column = read_columns(path, "predictions file")
    n_classes = 2
    if task is TaskKind.MULTICLASS_CLASSIFICATION:
        prob_names = sorted(
            (name for name in header if name.startswith("p_") and name[2:].isdecimal()),
            key=lambda name: int(name[2:]),
        )
        for name in prob_names:  # p_02 or p_٢ would pass for p_2
            if name[2:] != str(int(name[2:])):
                raise DataError(f"probability column {name!r} of {path} must be named p_{int(name[2:])}")
        if not prob_names:
            raise DataError(f"predictions file {path} lacks p_0..p_(C-1) columns")
        if [int(name[2:]) for name in prob_names] != list(range(len(prob_names))):
            raise DataError(f"probability columns of {path} must be contiguous p_0..p_(C-1), got {prob_names}")
        n_classes = len(prob_names)
    rules = input_rules(task, n_classes)  # the rules evaluate holds its arguments to

    if task is TaskKind.REGRESSION:
        return {name: column(name, rule) for name, rule in rules.items()}
    out = {name: column(name, rules[name]).astype(int) for name in ("y_true", "y_pred")}
    if task is TaskKind.CLUSTERING:
        # ids are arbitrary names (DBSCAN noise is -1): count the rows of each one present
        return {**out, "class_sizes": np.unique(out["y_pred"], return_counts=True)[1]}
    if task is TaskKind.BINARY_CLASSIFICATION:
        out["y_prob"] = column("y_prob", rules["y_prob"])
    else:
        probs = np.column_stack([column(name, rules["y_prob"]) for name in prob_names])
        sums = probs.sum(axis=1)
        if not (summed_to_one := _ROW_SUMS[1](sums)).all():
            bad = int(np.argmin(summed_to_one))
            raise DataError(
                f"probabilities {prob_names[0]}..{prob_names[-1]} of {path} must {_ROW_SUMS[0]}; "
                f"data row {bad + 1} sums to {float(sums[bad])!r}"
            )
        out["y_prob"] = probs

    class_sizes = np.bincount(out["y_true"], minlength=n_classes)
    if not (counted := rules["class_sizes"][1](class_sizes)).all():
        present = np.flatnonzero(counted).tolist()
        raise DataError(
            f"'y_true' of {path} has no row of class {int(np.argmin(counted))} "
            f"(it holds only class{'es' if len(present) > 1 else ''} {', '.join(map(str, present))}); "
            f"each class 0..{n_classes - 1} needs one for the imbalance factor h"
        )
    out["class_sizes"] = class_sizes
    return out


def cmd_evaluate(args: argparse.Namespace) -> int:
    task = TaskKind(args.task)
    breakdown = evaluate(task, d=args.d, n_train=args.n, **_read_predictions(args.predictions, task))
    print(_breakdown_json(breakdown))
    return EXIT_OK


def _write_or_print(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_dataset(args: argparse.Namespace) -> Dataset:
    ds = load_csv(args.data, args.target_column, TaskKind(args.task))
    if ds.n_dropped:
        print(f"note: dropped {ds.n_dropped} unusable rows from {args.data}", file=sys.stderr)
    return ds


def cmd_curve(args: argparse.Namespace) -> int:
    ds = _load_dataset(args)
    sched = schedule(args.start, args.stop, args.step)
    config = LearnerConfig(
        test_fraction=args.test_fraction,
        epochs=args.epochs,
        learning_rate=args.lr,
        n_clusters=args.k,
    )
    points = run_curve(ds, sched, ds.task, config, seed=args.seed, d=args.d)
    report = None
    if args.report is not None or args.series is None:  # with no output file, the report goes to stdout
        report = stability_report(points, d=args.d if args.d is not None else ds.d, n_star=args.n_star)

    if args.series is not None:
        _write_or_print(format_series_csv(points, smooth_window=args.smooth_window), args.series)
    if report is not None:
        _write_or_print(format_report_json(report), args.report)
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    ds = _load_dataset(args)
    expanded = synthetic_expand(ds, args.target_n, args.k_neighbors, args.seed)
    save_csv(expanded, args.out)
    print(f"wrote {expanded.n} rows ({expanded.n - ds.n} synthetic) to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    if args.d is None and args.n_star is None:
        raise _UsageError("report needs --d or --n-star to locate the threshold")
    points = parse_series_csv(args.series)
    report = stability_report(points, d=args.d, n_star=args.n_star, mad_scope=args.mad_scope)
    _write_or_print(format_report_json(report), args.report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="normetric", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    tasks = [kind.value for kind in TaskKind]

    ev = commands.add_parser("evaluate", help="one-shot adjusted metric from a predictions file")
    ev.add_argument("--task", required=True, choices=tasks)
    ev.add_argument("--predictions", required=True, help="CSV of y_true, y_pred[, probabilities]")
    ev.add_argument("--d", type=_POSITIVE_INT, required=True, help="feature count of the evaluated model")
    ev.add_argument("--n", type=_POSITIVE_INT, required=True, help="training-set size of the evaluated model")
    ev.set_defaults(func=cmd_evaluate)

    cv = commands.add_parser("curve", help="learning-curve experiment over a dataset CSV")
    cv.add_argument("--task", required=True, choices=tasks)
    cv.add_argument("--data", required=True, help="dataset CSV with a header row")
    cv.add_argument("--target-column", required=True)
    cv.add_argument("--start", type=_POSITIVE_INT, required=True)
    cv.add_argument("--stop", type=_POSITIVE_INT, required=True)
    cv.add_argument("--step", type=_POSITIVE_INT, required=True)
    cv.add_argument("--series", default=None, help="write the per-size series CSV here")
    cv.add_argument("--report", default=None, help="write the stability report JSON here")
    cv.add_argument("--seed", type=_SEED, default=42)
    cv.add_argument("--test-fraction", type=_OPEN_FRACTION, default=0.2)
    cv.add_argument("--d", type=_POSITIVE_INT, default=None, help="override the feature count")
    cv.add_argument("--n-star", type=_POSITIVE_INT, default=None, help="override the 20*d threshold")
    cv.add_argument("--smooth-window", type=_ODD_INT, default=5, help="odd window for display smoothing")
    cv.add_argument("--epochs", type=_POSITIVE_INT, default=500)
    cv.add_argument("--lr", type=_POSITIVE_FINITE, default=0.1)
    cv.add_argument("--k", type=_POSITIVE_INT, default=None, help="cluster count (clustering task)")
    cv.set_defaults(func=cmd_curve)

    ex = commands.add_parser("expand", help="synthetic nearest-neighbor expansion to a new CSV")
    ex.add_argument("--task", required=True, choices=tasks)
    ex.add_argument("--data", required=True)
    ex.add_argument("--target-column", required=True)
    ex.add_argument("--target-n", type=_POSITIVE_INT, required=True)
    ex.add_argument("--k-neighbors", type=_POSITIVE_INT, default=5)
    ex.add_argument("--out", required=True, help="destination CSV")
    ex.add_argument("--seed", type=_SEED, default=42)
    ex.set_defaults(func=cmd_expand)

    rp = commands.add_parser("report", help="recompute a stability report from a series CSV")
    rp.add_argument("--series", required=True, help="series CSV produced by the curve subcommand")
    rp.add_argument("--d", type=_POSITIVE_INT, default=None)
    rp.add_argument("--n-star", type=_POSITIVE_INT, default=None)
    rp.add_argument("--mad-scope", choices=["all", "before"], default="all")
    rp.add_argument("--report", default=None, help="write JSON here instead of stdout")
    rp.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"normetric: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"normetric: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NormetricError, ValueError, ArithmeticError) as exc:
        print(f"normetric: error: {exc}", file=sys.stderr)
        return EXIT_WORKER if isinstance(exc, WorkerError) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
