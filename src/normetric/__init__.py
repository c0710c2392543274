"""Dataset-adaptive normalized metrics for model assessment.

The core idea: a base metric (accuracy, 1 - MAPE, NMI) is rescaled by three
dataset-aware factors — a dimensionality boost f for models trained on too
few samples per feature, a signal-to-noise boost g for confident correct
predictions, and an imbalance penalty h — and capped at 1:

    normalized = min(1, base * f * g / h)

`evaluate` produces the full per-factor breakdown; the harness sweeps
training-set sizes to study how the adjusted metric stabilizes where the
raw one still climbs.
"""

from .data import Dataset, SampleSchedule, load_csv, save_csv, schedule, split, synthetic_expand
from .exceptions import (
    ConfigurationError,
    DataError,
    DegenerateDistributionError,
    DomainError,
    NormetricError,
    ShapeError,
)
from .factors import (
    SAMPLES_PER_FEATURE,
    MetricBreakdown,
    TaskKind,
    average_class_imbalance_ratio,
    class_imbalance_ratio,
    compose_normalized_metric,
    dimensionality_factor,
    evaluate,
    imbalance_adjustment_binary,
    imbalance_adjustment_multiclass,
    normalize_snr,
    snr_adjustment,
    snr_binary,
    snr_multiclass,
    snr_regression,
)
from .harness import (
    CurvePoint,
    LearnerConfig,
    MetricStats,
    StabilityReport,
    derive_seed,
    format_report_json,
    format_series_csv,
    parse_series_csv,
    run_curve,
    smooth,
    stability_report,
)
from .learners import (
    KMeansModel,
    LinearModel,
    LogisticModel,
    fit_kmeans,
    fit_linear,
    fit_logistic,
)
from .metrics import accuracy, mape_score, nmi
from .synthetic import make_binary_classification, make_blobs, make_regression

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "CurvePoint",
    "DataError",
    "Dataset",
    "DegenerateDistributionError",
    "DomainError",
    "KMeansModel",
    "LearnerConfig",
    "LinearModel",
    "LogisticModel",
    "MetricBreakdown",
    "MetricStats",
    "NormetricError",
    "SAMPLES_PER_FEATURE",
    "SampleSchedule",
    "ShapeError",
    "StabilityReport",
    "TaskKind",
    "accuracy",
    "average_class_imbalance_ratio",
    "class_imbalance_ratio",
    "compose_normalized_metric",
    "dimensionality_factor",
    "evaluate",
    "fit_kmeans",
    "fit_linear",
    "fit_logistic",
    "derive_seed",
    "format_report_json",
    "format_series_csv",
    "load_csv",
    "make_binary_classification",
    "make_blobs",
    "make_regression",
    "mape_score",
    "nmi",
    "normalize_snr",
    "parse_series_csv",
    "run_curve",
    "save_csv",
    "schedule",
    "smooth",
    "snr_adjustment",
    "snr_binary",
    "snr_multiclass",
    "snr_regression",
    "split",
    "stability_report",
    "synthetic_expand",
    "__version__",
]
