"""Learning-curve experiments: size sweeps, smoothing, and stability reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from ._fork import block_rows, map_on_cores
from .data import Dataset, SampleSchedule, read_columns, split
from .exceptions import ConfigurationError, DataError, DegenerateDistributionError, DomainError
from .factors import _PROBABILITIES, SAMPLES_PER_FEATURE, MetricBreakdown, TaskKind, evaluate, integer_rule
from .learners import _MATRIX, _fit_logistic_stack, fit_kmeans, fit_linear
from .metrics import _read

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


def _standardize(train: np.ndarray, test: np.ndarray,
                 names: Sequence[str]) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    # z-score the training subsample with its own statistics, returned to scale the test rows with.  A finite
    # std bounds every scaled training value by sqrt(rows), so an overflow shows as a non-finite std or scaled
    # test value.  Subtraction and division round monotonically, so every scaled test value is finite when
    # those of each column's least and greatest are: test may be just those two rows.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.mean(axis=0)
        std = train.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        scaled = (train - mean) / std
        ends = (np.array([test.min(axis=0), test.max(axis=0)]) - mean) / std
    if not (fits := np.isfinite(std) & np.isfinite(ends).all(axis=0)).all():
        raise DomainError(f"feature column {names[int(np.argmin(fits))]!r} is too large to standardize")
    return scaled, (mean, std)


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
    first m rows, so larger subsamples nest the smaller ones.  Each size is
    standardized with its own subsample statistics as its fit draws it, and
    the held-out split is scaled by them as the size is scored, so no scaled
    split is kept per size.  The task's learner is fitted with a seed derived
    from (seed, size), and each point records the base metric plus the full
    adjusted breakdown with n_train = m.  Class-imbalance sizes come from the
    whole training pool (clustering uses the fitted model's cluster sizes).
    Deterministic given the seed.

    The schedule is cut into chunks of consecutive sizes whose training
    rows sum to at most block_rows(width of the features), though one size
    may exceed it alone; a classifier's chunk descends as one stack
    (learners._fit_logistic_stack), other tasks fit each size in turn.
    A regression curve is one chunk: its line fits take a few milliseconds,
    less than forking costs.  Two chunks or more are fitted in forked worker
    processes (map_on_cores), one per usable core up to one per chunk, in
    order.  Either way the points are the same bits, and a failure, to
    standardize, fit, predict or score, raises the error of the first
    failing size in schedule order once the sizes before it are scored; a
    worker that dies raises WorkerError.  A non-finite feature is refused first.
    """
    config = config if config is not None else LearnerConfig()
    if not np.isfinite(features := _read("features", ds.features, 2, cols=len(ds.feature_names), form=_MATRIX)).all():
        column, row = divmod(int(np.argmin(np.isfinite(features).T)), len(features))  # its first non-finite column
        raise DomainError(f"feature column {ds.feature_names[column]!r} must hold finite numbers; "
                          f"row {row} is {float(features[row, column])!r}")
    if not 0 < (d := d if d is not None else ds.d) < np.inf:  # in factors' words, before any chunk is fitted
        raise DomainError(f"d must be finite and positive, got d={d}")
    train, test = split(ds, config.test_fraction, seed)
    if sched.max_size > train.n:
        raise DomainError(
            f"schedule needs {sched.max_size} training rows but the pool has {train.n}"
        )
    order = np.random.default_rng(derive_seed(seed, 0)).permutation(train.n)
    pool = train.take(order)
    column = f"target column {pool.target_name!r}"
    ends = np.array([test.features.min(axis=0), test.features.max(axis=0)])

    def farthest(X_test):  # the feature column whose scaled test value lies farthest out
        return f"feature column {pool.feature_names[int(np.argmax(np.abs(X_test).max(axis=0)))]!r}"

    if task is TaskKind.REGRESSION:  # on the standardized input, a line fit or prediction fails only on an overflow
        def fitted(sets):
            for X, y, _ in sets:
                try:
                    model = fit_linear(X, y)
                except DomainError:
                    raise DomainError(f"{column} is too large to fit a line to") from None
                yield model

        def scored(model, X_test, size):
            try:
                preds = model.predict(X_test)
            except DomainError:
                # inputs in the training range, |x| <= sqrt(size), give predictions within this reach: when it
                # is finite, a test feature far out made the overflow, and otherwise the weights (the target) did
                with np.errstate(over="ignore"):
                    reach = np.sqrt(size) * np.abs(model.weights).sum() + abs(model.intercept)
                raise DomainError(f"{farthest(X_test)} is too large to predict" if np.isfinite(reach)
                                  else f"{column} is too large to predict") from None
            try:
                return evaluate(task, test.target, preds, d, size)
            except DomainError:  # MAPE's on a zero test target, else an error or a square overflowed
                raise DomainError(f"{column} is too large to score" if test.target.all()
                                  else f"{column} holds 0 in the test split, where MAPE is undefined") from None
    elif task is TaskKind.CLUSTERING:
        k = config.n_clusters if config.n_clusters is not None else int(max(pool.target.max(), test.target.max())) + 1

        def fitted(sets):
            for X, _, fit_seed in sets:
                if len(X) < k:
                    raise DomainError(f"training size {len(X)} holds fewer rows than k={k} clusters")
                yield fit_kmeans(X, k, seed=fit_seed)

        def scored(model, X_test, size):
            try:
                preds = model.predict(X_test)
            except DomainError:
                raise DomainError(f"{farthest(X_test)} is too large for k-means distances") from None
            return evaluate(task, test.target, preds, d, size,
                            class_sizes=np.unique(model.assignments, return_counts=True)[1])
    else:
        n_classes = int(max(pool.target.max(), test.target.max())) + 1
        if n_classes > 2 and task is TaskKind.BINARY_CLASSIFICATION:  # every size would fail to score
            raise DomainError(f"{column} holds class {n_classes - 1}, but a binary curve's classes are 0 and 1")
        pool_sizes = np.bincount(pool.target.astype(int), minlength=n_classes)  # not per training size

        def classes(drawn):  # a size whose rows hold one class, named as the stack draws it, before its own check
            if ((y := drawn[1]) == y[0]).all():
                raise DegenerateDistributionError(f"training size {y.size} holds only class {int(y[0])} of {column}")
            return drawn

        def fitted(sets):
            return _fit_logistic_stack(map(classes, sets), n_classes, config.epochs, config.learning_rate)

        def scored(model, X_test, size):
            proba = model.predict_proba(X_test)
            if not pool_sizes.all():
                raise DegenerateDistributionError(f"{column} has no training row of class {np.argmin(pool_sizes)}")
            return evaluate(task, test.target, np.argmax(proba, axis=1), d, size, class_sizes=pool_sizes,
                            y_prob=proba.max(axis=1) if task is TaskKind.BINARY_CLASSIFICATION else proba)

    def chunk(sizes):  # fit on the shuffled pool's first `size` rows for each of consecutive sizes, and score
        scales, points = [], []

        def training_sets():
            for size in sizes:
                X_train, scale = _standardize(pool.features[:size], ends, pool.feature_names)
                scales.append(scale)
                yield X_train, pool.target[:size], derive_seed(seed, 1, size)

        for size, model in zip(sizes, fitted(training_sets())):
            mean, std = scales[len(points)]  # drawn with its training set, which passed the same check
            points.append(CurvePoint(size, scored(model, (test.features - mean) / std, size)))
        return points

    chunks, limit = [[]], np.inf if task is TaskKind.REGRESSION else block_rows(pool.d)  # regression: one chunk
    for size in sched.sizes:  # a size joins the chunk before it while their rows fit in the limit
        if chunks[-1] and sum(chunks[-1]) + size > limit:
            chunks.append([])
        chunks[-1].append(size)
    # each fit is seeded by its size alone, and a stack gives each set its own bits, so forked workers give
    # the serial loop's points bit for bit
    done = map_on_cores(chunk, chunks, "training size {0[0]} was fitted".format)
    return [point for points in done for point in points]


def smooth(values: Sequence[float], window: int) -> np.ndarray:
    """Centered moving average of one series, the window truncated at the ends.

    Window must be odd; 1 is the identity.  Display-only: stability
    statistics should always be computed from the raw curve.
    """
    if window < 1 or window % 2 == 0:
        raise DomainError(f"smoothing window must be odd and >= 1, got {window}")
    values = _read("values", values)
    half = window // 2
    with np.errstate(over="ignore", invalid="ignore"):  # NaN, ±inf or an overflowing sum average to NaN or ±inf
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

    The nine raw columns are read by name in one read, as the predictions
    file of `evaluate` is.  A DataError names the file and a bad data row
    (data.read_columns says which) when a field is not a number, a
    train_size is not an integer >= 1 or does not exceed the one before it,
    or a base or adjusted metric is not in [0, 1], train_size's first.
    """
    rules = {"train_size": integer_rule("integers >= 1", 1), "base_metric": _UNIT_INTERVAL,
             "adjusted_metric": _UNIT_INTERVAL}
    column = read_columns(path, "series file")[1]({col: rules.get(col) for col in SERIES_COLUMNS[:-2]})  # not smoothed
    sizes = column("train_size").astype(int)
    drop = np.flatnonzero(np.diff(sizes) <= 0)
    if drop.size:
        at = int(drop[0]) + 1
        raise DataError(
            f"column 'train_size' of {path} must increase strictly; data row {at + 1} has "
            f"{sizes[at]} after {sizes[at - 1]}"
        )
    fields = {name: column(col).tolist() for col, name in _SERIES_FIELDS}
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
