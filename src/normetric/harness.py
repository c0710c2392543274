"""Learning-curve experiments: size sweeps, smoothing, and stability reports."""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, SampleSchedule, split
from .exceptions import ConfigurationError, DataError, DomainError
from .factors import SAMPLES_PER_FEATURE, MetricBreakdown, TaskKind, evaluate
from .learners import fit_kmeans, fit_linear, fit_logistic

__all__ = [
    "CurvePoint",
    "LearnerConfig",
    "MetricStats",
    "StabilityReport",
    "SERIES_COLUMNS",
    "run_curve",
    "smooth",
    "stability_report",
    "derive_seed",
    "format_series_csv",
    "parse_series_csv",
    "format_report_json",
]


@dataclass(frozen=True)
class CurvePoint:
    """One learning-curve sample: metrics for a model trained on train_size rows.

    adjusted_metric equals breakdown.normalized for raw curves; smoothing
    replaces the two metric values but keeps the raw breakdown.
    """

    train_size: int
    base_metric: float
    adjusted_metric: float
    breakdown: MetricBreakdown


@dataclass(frozen=True)
class MetricStats:
    """Averages of one metric across a curve, split at the n* threshold."""

    overall_avg: float
    avg_before: float
    avg_after: float
    mad_from_target: float


@dataclass(frozen=True)
class StabilityReport:
    """Side-by-side curve statistics for the base and adjusted metrics."""

    threshold_n_star: int
    initial: MetricStats
    adjusted: MetricStats


@dataclass
class LearnerConfig:
    """Knobs for the per-size model fits and the train/test split.

    n_clusters defaults to the number of distinct true labels when left None.
    """

    test_fraction: float = 0.2
    epochs: int = 500
    learning_rate: float = 0.1
    n_clusters: Optional[int] = None


def derive_seed(master_seed: int, *tags: int) -> int:
    """Collapse (master seed, tags...) into an independent child seed."""
    return int(np.random.SeedSequence((master_seed, *tags)).generate_state(1)[0])


def _standardize(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # z-score both sides with the training subsample's own statistics
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (train - mean) / std, (test - mean) / std


def _curve_point(
    pool: Dataset,
    test: Dataset,
    size: int,
    task: TaskKind,
    d: int,
    config: LearnerConfig,
    fit_seed: int,
) -> CurvePoint:
    X_train, X_test = _standardize(pool.features[:size], test.features)
    y_train = pool.target[:size]

    if task is TaskKind.REGRESSION:
        preds = fit_linear(X_train, y_train).predict(X_test)
        scoring = {}
    elif task is TaskKind.CLUSTERING:
        k = config.n_clusters
        if k is None:  # one cluster per true class
            k = int(max(pool.target.max(), test.target.max())) + 1
        model = fit_kmeans(X_train, k, seed=fit_seed)
        preds = model.predict(X_test)
        scoring = {"class_sizes": np.unique(model.assignments, return_counts=True)[1]}
    else:
        n_classes = int(max(pool.target.max(), test.target.max())) + 1
        model = fit_logistic(
            X_train,
            y_train.astype(int),
            n_classes,
            epochs=config.epochs,
            learning_rate=config.learning_rate,
            seed=fit_seed,
        )
        proba = model.predict_proba(X_test)
        preds = np.argmax(proba, axis=1)
        scoring = {
            "y_prob": proba[np.arange(preds.size), preds] if task is TaskKind.BINARY_CLASSIFICATION else proba,
            "class_sizes": np.bincount(pool.target.astype(int), minlength=n_classes),
        }

    breakdown = evaluate(task, test.target, preds, d, size, **scoring)
    return CurvePoint(size, breakdown.base, breakdown.normalized, breakdown)


def run_curve(
    ds: Dataset,
    sched: SampleSchedule,
    task: TaskKind,
    config: Optional[LearnerConfig] = None,
    seed: int = 0,
    d: Optional[int] = None,
) -> list[CurvePoint]:
    """Train at every schedule size and evaluate against one fixed test split.

    The training pool is shuffled once, and size-m training sets are its
    first m rows, so larger subsamples nest the smaller ones.  Each size
    standardizes features with its own subsample statistics, fits the
    task's learner with a seed derived from (seed, size), predicts on the
    held-out split, and records the base metric plus the full adjusted
    breakdown with n_train = m.  Class-imbalance sizes come from the whole
    training pool (clustering uses the fitted model's cluster sizes).
    Deterministic given the seed.
    """
    config = config if config is not None else LearnerConfig()
    train, test = split(ds, config.test_fraction, seed)
    if sched.max_size > train.n:
        raise DomainError(
            f"schedule needs {sched.max_size} training rows but the pool has {train.n}"
        )
    order = np.random.default_rng(derive_seed(seed, 0)).permutation(train.n)
    pool = train.take(order)
    d = d if d is not None else ds.d
    return [
        _curve_point(pool, test, size, task, d, config, derive_seed(seed, 1, size))
        for size in sched.sizes
    ]


def smooth(points: Sequence[CurvePoint], window: int) -> list[CurvePoint]:
    """Centered moving average of both metric series, truncated at the ends.

    Window must be odd; 1 is the identity.  The smoothed points keep each
    raw point's breakdown, so this is display-only — stability statistics
    should always be computed from the raw curve.
    """
    if window < 1 or window % 2 == 0:
        raise DomainError(f"smoothing window must be odd and >= 1, got {window}")
    if window == 1:
        return list(points)
    half = window // 2
    base = np.array([p.base_metric for p in points])
    adjusted = np.array([p.adjusted_metric for p in points])
    out = []
    for i, point in enumerate(points):
        lo, hi = max(0, i - half), min(len(points), i + half + 1)
        out.append(
            replace(
                point,
                base_metric=float(np.mean(base[lo:hi])),
                adjusted_metric=float(np.mean(adjusted[lo:hi])),
            )
        )
    return out


def stability_report(
    points: Sequence[CurvePoint],
    d: Optional[int] = None,
    *,
    n_star: Optional[int] = None,
    mad_scope: str = "all",
) -> StabilityReport:
    """Summarize how tightly each metric tracks the curve's settled value.

    The threshold n* is 20·d unless overridden.  The target T is the mean
    of the BASE metric over sizes >= n* (the long-run performance both
    series are judged against).  mad_from_target averages |metric - T|
    over all points, or over only the pre-threshold points with
    mad_scope="before".  Raises when either side of the threshold is empty.
    """
    if n_star is None:
        if d is None:
            raise ConfigurationError("stability_report needs d or an explicit n_star")
        if d < 1:
            raise DomainError(f"d must be >= 1, got {d}")
        n_star = SAMPLES_PER_FEATURE * d
    if mad_scope not in ("all", "before"):
        raise ConfigurationError(f"mad_scope must be 'all' or 'before', got {mad_scope!r}")

    sizes = np.array([p.train_size for p in points])
    base = np.array([p.base_metric for p in points])
    adjusted = np.array([p.adjusted_metric for p in points])
    after = sizes >= n_star
    if not after.any():
        raise DomainError(f"no curve points at or after the threshold n* = {n_star}")
    if after.all():
        raise DomainError(f"no curve points before the threshold n* = {n_star}")

    target = float(np.mean(base[after]))
    scope = np.ones_like(after) if mad_scope == "all" else ~after

    def stats(series: np.ndarray) -> MetricStats:
        return MetricStats(
            overall_avg=float(np.mean(series)),
            avg_before=float(np.mean(series[~after])),
            avg_after=float(np.mean(series[after])),
            mad_from_target=float(np.mean(np.abs(series[scope] - target))),
        )

    return StabilityReport(threshold_n_star=int(n_star), initial=stats(base), adjusted=stats(adjusted))


# series CSV column -> MetricBreakdown field, in file order; train_size comes
# first and the two smoothed display columns last
_SERIES_FIELDS = (
    ("base_metric", "base"),
    ("adjusted_metric", "normalized"),
    ("f", "dim_factor_f"),
    ("g", "snr_factor_g"),
    ("h", "imbalance_factor_h"),
    ("snr_db", "snr_db"),
    ("snr_normalized", "snr_normalized"),
    ("imbalance_ratio", "imbalance_ratio"),
)
SERIES_COLUMNS = ("train_size", *(column for column, _ in _SERIES_FIELDS), "base_smoothed", "adjusted_smoothed")


def format_series_csv(points: Sequence[CurvePoint], smooth_window: int = 5) -> str:
    """Render a curve as a plot-ready CSV string.

    The first nine columns are each point's size and raw breakdown
    (infinities appear as the token `inf`); the last two are the smoothed
    display series.  Floats are written in shortest round-trip form so the
    file carries full precision.
    """
    smoothed = smooth(points, smooth_window)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SERIES_COLUMNS)
    for point, disp in zip(points, smoothed):
        values = [getattr(point.breakdown, name) for _, name in _SERIES_FIELDS]
        values += [disp.base_metric, disp.adjusted_metric]
        writer.writerow([str(point.train_size)] + [str(float(value)) for value in values])
    return buffer.getvalue()


def parse_series_csv(path: str) -> list[CurvePoint]:
    """Read a series CSV back into curve points with full breakdowns.

    A row is a DataError, naming the file and data row, when a field does
    not parse, when its base or adjusted metric is not a number in [0, 1],
    or when its train_size does not exceed the previous row's.
    """
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty (no header row)") from None
        required = SERIES_COLUMNS[:9]
        missing = [name for name in required if name not in header]
        if missing:
            raise DataError(f"series file {path} lacks columns: {', '.join(missing)}")
        at = {name: header.index(name) for name in required}
        points = []
        for number, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError(f"data row {number} of {path} has {len(row)} fields, expected {len(header)}")
            try:
                train_size = int(row[at["train_size"]])
                breakdown = MetricBreakdown(**{name: float(row[at[column]]) for column, name in _SERIES_FIELDS})
            except ValueError as exc:
                raise DataError(f"data row {number} of {path} does not parse: {exc}") from None
            for column, value in (("base_metric", breakdown.base), ("adjusted_metric", breakdown.normalized)):
                if not 0.0 <= value <= 1.0:  # NaN fails too
                    raise DataError(
                        f"column {column!r} of {path} must hold numbers in [0, 1]; "
                        f"data row {number} has {row[at[column]]!r}"
                    )
            if points and train_size <= points[-1].train_size:
                raise DataError(
                    f"column 'train_size' of {path} must increase strictly; data row {number} has "
                    f"{train_size} after {points[-1].train_size}"
                )
            points.append(CurvePoint(train_size, breakdown.base, breakdown.normalized, breakdown))
    if not points:
        raise DataError(f"series file {path} has no data rows")
    return points


def _stats_lines(name: str, stats: MetricStats, last: bool) -> list[str]:
    return [
        f'  "{name}": {{',
        f'    "overall_avg": {stats.overall_avg:.6f},',
        f'    "avg_before": {stats.avg_before:.6f},',
        f'    "avg_after": {stats.avg_after:.6f},',
        f'    "mad_from_target": {stats.mad_from_target:.6f}',
        "  }" if last else "  },",
    ]


def format_report_json(report: StabilityReport) -> str:
    """Render a stability report as JSON with fixed 6-decimal reals.

    Hand-formatted so identical reports are byte-identical regardless of
    platform float repr quirks.
    """
    lines = ["{", f'  "threshold_n_star": {report.threshold_n_star},']
    lines += _stats_lines("initial", report.initial, last=False)
    lines += _stats_lines("adjusted", report.adjusted, last=True)
    lines.append("}")
    return "\n".join(lines) + "\n"
