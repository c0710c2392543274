"""Learning-curve experiments: size sweeps, smoothing, and stability reports."""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from ._fork import map_on_cores
from .data import Dataset, SampleSchedule, read_columns, split
from .exceptions import ConfigurationError, DataError, DomainError
from .factors import _PROBABILITIES, SAMPLES_PER_FEATURE, MetricBreakdown, TaskKind, evaluate, integer_rule
from .learners import fit_kmeans, fit_linear, fit_logistic

__all__ = [
    "CurvePoint",
    "LearnerConfig",
    "MetricStats",
    "StabilityReport",
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
    """One learning-curve sample: the metric breakdown of a model trained on train_size rows."""

    train_size: int
    breakdown: MetricBreakdown

    @property
    def base_metric(self) -> float:
        return self.breakdown.base

    @property
    def adjusted_metric(self) -> float:
        return self.breakdown.normalized


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


def _standardize(train: np.ndarray, test: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    # z-score both sides with the training subsample's own statistics.  A finite std bounds every scaled
    # training value by sqrt(rows), so an overflow shows as a non-finite std or scaled test value.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.mean(axis=0)
        std = train.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        scaled = (train - mean) / std, (test - mean) / std
    if not (fits := np.isfinite(std) & np.isfinite(scaled[1]).all(axis=0)).all():
        raise DomainError(f"feature column {names[int(np.argmin(fits))]!r} is too large to standardize")
    return scaled


def _curve_point(pool: Dataset, test: Dataset, task: TaskKind, config: LearnerConfig, seed: int, d: int,
                 n_classes: Optional[int], pool_sizes: Optional[np.ndarray], k: Optional[int],
                 size: int) -> CurvePoint:
    """Fit on the shuffled pool's first `size` rows and score the fit on the test split."""
    X_train, X_test = _standardize(pool.features[:size], test.features, pool.feature_names)
    y_train = pool.target[:size]
    fit_seed = derive_seed(seed, 1, size)
    if task is TaskKind.REGRESSION:
        preds = fit_linear(X_train, y_train).predict(X_test)
        scoring = {}
    elif task is TaskKind.CLUSTERING:
        model = fit_kmeans(X_train, k, seed=fit_seed)
        preds = model.predict(X_test)
        scoring = {"class_sizes": np.unique(model.assignments, return_counts=True)[1]}
    else:
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
            "y_prob": proba.max(axis=1) if task is TaskKind.BINARY_CLASSIFICATION else proba,
            "class_sizes": pool_sizes,
        }
    return CurvePoint(size, evaluate(task, test.target, preds, d, size, **scoring))


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

    The sizes are fitted in forked worker processes, one per usable core
    (os.sched_getaffinity), in order.  With one usable core, or in a
    daemonic process, they are fitted in this process.  Either way the
    points are the same bits, and a failure raises the error of the first
    failing size in schedule order; a worker that dies raises WorkerError.
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
    n_classes = pool_sizes = None
    if task.has_class_targets:  # neither depends on the training size
        n_classes = int(max(pool.target.max(), test.target.max())) + 1
        if task is not TaskKind.CLUSTERING:
            pool_sizes = np.bincount(pool.target.astype(int), minlength=n_classes)
    k = config.n_clusters if config.n_clusters is not None else n_classes  # default: one per true class

    point = functools.partial(_curve_point, pool, test, task, config, seed, d, n_classes, pool_sizes, k)
    # each point's fit is seeded by its size alone, so forked workers give the serial loop's points bit for bit
    return list(map_on_cores(point, sched.sizes, "training size {} was fitted".format))


def smooth(values: Sequence[float], window: int) -> np.ndarray:
    """Centered moving average of one series, the window truncated at the ends.

    Window must be odd; 1 is the identity.  Display-only: stability
    statistics should always be computed from the raw curve.
    """
    if window < 1 or window % 2 == 0:
        raise DomainError(f"smoothing window must be odd and >= 1, got {window}")
    values = np.asarray(values, dtype=float)
    half = window // 2
    return np.array([np.mean(values[max(0, i - half):i + half + 1]) for i in range(values.size)])


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
    (infinities appear as the token `inf`); the last two are the base and
    adjusted metrics smoothed for display.  Floats are written in shortest
    round-trip form so the file carries full precision.
    """
    base = smooth([p.base_metric for p in points], smooth_window)
    adjusted = smooth([p.adjusted_metric for p in points], smooth_window)
    lines = [",".join(SERIES_COLUMNS)]
    for point, *shown in zip(points, base.tolist(), adjusted.tolist()):
        values = [getattr(point.breakdown, name) for _, name in _SERIES_FIELDS] + shown
        lines.append(",".join([str(point.train_size), *map(repr, map(float, values))]))
    return "\n".join(lines) + "\n"


_UNIT_INTERVAL = ("numbers in [0, 1]", _PROBABILITIES[1])


def parse_series_csv(path: str) -> list[CurvePoint]:
    """Read a series CSV back into curve points with full breakdowns.

    Columns are read by name, as the predictions file of `evaluate` is.
    A DataError names the file and a bad data row (data.read_columns says
    which) when a field is not a number, a train_size is not an integer
    >= 1 or does not exceed the one before it, or a base or adjusted metric
    is not in [0, 1].
    """
    _, column = read_columns(path, "series file")
    sizes = column("train_size", integer_rule("integers >= 1", 1)).astype(int)
    drop = np.flatnonzero(np.diff(sizes) <= 0)
    if drop.size:
        at = int(drop[0]) + 1
        raise DataError(
            f"column 'train_size' of {path} must increase strictly; data row {at + 1} has "
            f"{sizes[at]} after {sizes[at - 1]}"
        )
    rules = {"base_metric": _UNIT_INTERVAL, "adjusted_metric": _UNIT_INTERVAL}
    fields = {name: column(col, rules.get(col)).tolist() for col, name in _SERIES_FIELDS}
    return [
        CurvePoint(size, MetricBreakdown(**dict(zip(fields, values))))
        for size, values in zip(sizes.tolist(), zip(*fields.values()))
    ]


def format_report_json(report: StabilityReport) -> str:
    """Render a stability report as JSON with fixed 6-decimal reals.

    Hand-formatted, each stats block MetricStats' fields in order, so identical
    reports are byte-identical regardless of platform float repr quirks.
    """
    blocks = [
        f'  "{name}": {{\n'
        + ",\n".join(f'    "{field}": {value:.6f}' for field, value in asdict(stats).items())
        + "\n  }"
        for name, stats in (("initial", report.initial), ("adjusted", report.adjusted))
    ]
    return "{\n" + f'  "threshold_n_star": {report.threshold_n_star},\n' + ",\n".join(blocks) + "\n}\n"
