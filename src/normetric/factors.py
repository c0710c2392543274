"""Factors of the dataset-adaptive normalized metric and their composition.

The normalized metric rescales a base performance score (accuracy, 1 - MAPE,
or NMI) by three dataset-condition factors:

    normalized = min(1, base * f(d, n) * g(SNR) / h(imbalance))

where f boosts models trained with too few samples per feature, g rewards a
clean signal-to-noise ratio, and h penalizes class or cluster imbalance.
Everything here is a pure function; `evaluate` picks the base metric and
composes the factors per task kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .exceptions import (
    ConfigurationError,
    DegenerateDistributionError,
    DomainError,
    ShapeError,
)
from .metrics import _as_equal_length, _contingency, _nmi_of_table, _read, accuracy, mape_score

__all__ = [
    "SAMPLES_PER_FEATURE",
    "TaskKind",
    "MetricBreakdown",
    "dimensionality_factor",
    "class_imbalance_ratio",
    "imbalance_adjustment_binary",
    "average_class_imbalance_ratio",
    "imbalance_adjustment_multiclass",
    "snr_regression",
    "snr_binary",
    "snr_multiclass",
    "normalize_snr",
    "snr_adjustment",
    "compose_normalized_metric",
    "input_rules",
    "evaluate",
]

# Samples-per-feature ratio below which data counts as scarce; n* = RATIO * d
# is the neutral point of the dimensionality factor.
SAMPLES_PER_FEATURE = 20


class TaskKind(Enum):
    """Task family; selects the SNR formula and the imbalance formula."""

    BINARY_CLASSIFICATION = "binary"
    MULTICLASS_CLASSIFICATION = "multiclass"
    REGRESSION = "regression"
    CLUSTERING = "clustering"

    @property
    def has_class_targets(self) -> bool:
        """True when targets are class indices rather than real values."""
        return self is not TaskKind.REGRESSION


@dataclass(frozen=True)
class MetricBreakdown:
    """Base metric, every factor, and the final capped normalized metric.

    snr_db may be +/-inf (zero noise / zero signal); imbalance_ratio is the
    majority/minority ratio (>= 1) for binary, the mean class-to-majority
    ratio (in (0, 1]) for multiclass and clustering, and 1.0 for regression.
    """

    base: float
    dim_factor_f: float
    snr_db: float
    snr_normalized: float
    snr_factor_g: float
    imbalance_ratio: float
    imbalance_factor_h: float
    normalized: float


def integer_rule(requirement: str, low: float = -(2.0**63), high: float = 2.0**63) -> tuple:
    """A rule of integers in [low, high), by default int64's so that int() of one is exact (NaN and ±inf fail)."""
    return requirement, lambda v: (v == np.trunc(v)) & (v >= low) & (v < high)


_FINITE = ("finite numbers", np.isfinite)
_PROBABILITIES = ("probabilities in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0))
_ROW_SUMS = ("sum to 1 within 1e-6", lambda sums: np.abs(sums - 1.0) <= 1e-6)
_CLASS_SIZES = integer_rule("integer counts >= 1", 1)
_PROBABILITY_ROWS = "y_prob must be 2-D (samples x classes)"  # a multiclass y_prob's form


def input_rules(task: TaskKind, n_classes: int = 2) -> dict[str, tuple]:
    """Each array argument evaluate takes for the task, mapped to its rule: (requirement, test).

    The predictions file's columns hold the same rules.  The input rules are applied once per call, by the code
    that reads the argument: y_true and y_pred in evaluate (a multiclass y_true in snr_multiclass), y_prob (rows:
    _ROW_SUMS) in the SNRs, class_sizes in the imbalances.
    """
    if task is TaskKind.REGRESSION:
        return dict.fromkeys(["y_true", "y_pred"], _FINITE)
    if task is TaskKind.CLUSTERING:
        true_ids = integer_rule("non-negative integer labels", 0)
        return {"y_true": true_ids, "y_pred": integer_rule("integer cluster ids"), "class_sizes": _CLASS_SIZES}
    if task is TaskKind.BINARY_CLASSIFICATION:
        labels = integer_rule("labels 0 or 1", 0, 2)
    else:
        labels = integer_rule(f"integer labels in [0, {n_classes})", 0, n_classes)
    return {"y_true": labels, "y_pred": labels, "y_prob": _PROBABILITIES, "class_sizes": _CLASS_SIZES}


def dimensionality_factor(d: int, n: int) -> float:
    """Boost factor for feature dimensionality relative to sample count.

    Computes 1 + max(0, sigmoid(d / ((1 / SAMPLES_PER_FEATURE) * n) - 1) - 0.5).
    The ratio equals 1 when there are exactly SAMPLES_PER_FEATURE samples
    per feature; at or below that point the factor is exactly 1 (no boost,
    no penalty), above it the factor grows toward, but never reaches, 1.5.
    """
    if not (0 < d < math.inf and 0 < n < math.inf):
        raise DomainError(f"d and n must be finite and positive, got d={d}, n={n}")
    ratio = d / ((1 / SAMPLES_PER_FEATURE) * n)
    centered = 1.0 / (1.0 + math.exp(-(ratio - 1.0))) - 0.5
    return 1.0 + max(0.0, centered)


def _class_sizes(class_sizes: Sequence[int]) -> np.ndarray:
    """class_sizes as read and held to their rule; an empty class, shown as given on one line, is degenerate."""
    if np.any((sizes := _read("class_sizes", class_sizes)) == 0):  # numpy's text of a long array breaks its lines
        raise DegenerateDistributionError(f"every class needs at least one sample, got {class_sizes}".replace("\n", ""))
    return _read("class_sizes", sizes, rule=_CLASS_SIZES)


def class_imbalance_ratio(class_sizes: Sequence[int]) -> float:
    """Majority-class count over minority-class count for two classes."""
    if (sizes := _class_sizes(class_sizes)).size != 2:
        raise DomainError(f"binary imbalance ratio needs exactly 2 class sizes, got {sizes.size}")
    return float(sizes.max() / sizes.min())


def imbalance_adjustment_binary(ci: float) -> float:
    """Binary imbalance penalty 1 + log10(CI); 1 at perfect balance."""
    if ci < 1.0:
        raise DomainError(f"CI must be >= 1 (majority/minority), got {ci}")
    return 1.0 + math.log10(ci)


def average_class_imbalance_ratio(class_sizes: Sequence[int]) -> float:
    """Mean over classes of (class size / majority size); 1 iff balanced."""
    if (sizes := _class_sizes(class_sizes)).size < 2:
        raise DomainError(f"ACIR needs at least 2 classes, got {sizes.size}")
    return float(np.mean(sizes / sizes.max()))


def imbalance_adjustment_multiclass(acir: float) -> float:
    """Multiclass imbalance penalty 1 + log10(1 / ACIR); 1 at perfect balance."""
    if not 0.0 < acir <= 1.0:
        raise DomainError(f"ACIR must be in (0, 1], got {acir}")
    return 1.0 + math.log10(1.0 / acir)


def _decibels(signal: float, noise: float) -> float:
    """10 * log10(signal / noise); +inf for zero noise, -inf for zero signal."""
    if signal == 0.0 and noise == 0.0:
        raise DomainError("signal and noise are both zero; SNR undefined")
    if noise == 0.0:
        return math.inf
    if (ratio := signal / noise) == 0.0:  # zero signal, an infinite noise, or an underflow
        return -math.inf
    return 10.0 * math.log10(ratio)


def snr_regression(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Regression signal-to-noise ratio in dB.

    10 * log10(sum(y_true^2) / sum((y_pred - y_true)^2)); +inf when the
    residual sum is zero (perfect prediction).
    """
    yt, yp = _as_equal_length(y_true, y_pred, float)
    try:
        with np.errstate(all="raise", under="ignore"):
            signal, noise = float(np.sum(yt * yt)), float(np.sum((yp - yt) ** 2))
    except FloatingPointError:
        raise DomainError("regression values too large to score: a square overflows") from None
    if signal <= 0.0:
        raise DomainError("all-zero y_true leaves the signal term undefined")
    return _decibels(signal, noise)


def snr_binary(y_true: Sequence, y_pred: Sequence, y_prob: Sequence[float]) -> float:
    """Binary classification signal-to-noise ratio in dB.

    Signal is the count of correct predictions; noise is sum((1 - p)^2) over
    every sample, where p is the predicted probability of the predicted
    class.  Returns +inf for zero noise with nonzero signal and -inf for
    zero signal with nonzero noise.  The labels are compared as given.
    """
    yt, yp = _as_equal_length(y_true, y_pred)
    prob = _read("y_prob", y_prob, rows=yt.size, rule=_PROBABILITIES)
    signal = float(np.sum(yt == yp))
    noise = float(np.sum((1.0 - prob) ** 2))
    return _decibels(signal, noise)


def snr_multiclass(y_true: Sequence[int], y_prob: Sequence[Sequence[float]]) -> float:
    """Multiclass signal-to-noise ratio in dB from y_prob's probability vectors, each summing to 1 within 1e-6.

    Predictions are the argmax of each probability vector (ties go to the
    lowest class index).  Signal is the sum of squared diagonal entries of
    the resulting confusion matrix (squared true-positive counts); noise is
    the total squared distance between each probability vector and the
    one-hot vector of its true class.  Returns +inf when noise is zero.
    """
    probs = _read("y_prob", y_prob, 2, rule=_PROBABILITIES, form=_PROBABILITY_ROWS)  # its columns: y_true's range
    labels = input_rules(TaskKind.MULTICLASS_CLASSIFICATION, n_classes := probs.shape[1])["y_true"]
    yt = _read("y_true", y_true, rows=len(probs), rule=labels).astype(int)  # held to it before the cast
    if yt.size == 0:
        raise DomainError("cannot compute SNR of empty sequences")
    if not _ROW_SUMS[1](probs.sum(axis=1)).all():
        raise DomainError(f"every probability vector must {_ROW_SUMS[0]}")

    predictions = np.argmax(probs, axis=1)
    diagonal_counts = np.bincount(yt[predictions == yt], minlength=n_classes)
    signal = float(np.sum(diagonal_counts.astype(float) ** 2))

    one_hot = np.zeros_like(probs)
    one_hot[np.arange(yt.shape[0]), yt] = 1.0
    noise = float(np.sum((probs - one_hot) ** 2))

    return _decibels(signal, noise)


def normalize_snr(x: float) -> float:
    """Map an SNR in dB onto the [0, 0.5] quality scale.

    Piecewise-linear over the paper's quality bands (<10 dB no signal,
    10-15 very low, 15-25 low, 25-40 very good, >40 excellent):

        0.125 + 0.125 * (x - 0) / 10   for  0 <= x < 10
        0.25  + 0.125 * (x - 10) / 5   for 10 <= x < 15
        0.375 + 0.125 * (x - 15) / 10  for 15 <= x < 25
        0.5   + 0.125 * (x - 25) / 15  for 25 <= x < 40
        0.5                            for x >= 40

    Every x >= 25 (+inf included) maps to 0.5, as the fourth band clamps to
    the 0.5 cap; negative inputs (and -inf) map to 0.
    """
    if math.isnan(x):
        raise DomainError("SNR is NaN")
    if x < 0.0:
        return 0.0
    if x < 10.0:
        return 0.125 + 0.125 * x / 10.0
    if x < 15.0:
        return 0.25 + 0.125 * (x - 10.0) / 5.0
    if x < 25.0:
        return 0.375 + 0.125 * (x - 15.0) / 10.0
    return 0.5


def snr_adjustment(snr_normalized: float) -> float:
    """SNR factor g = 1 + normalized SNR, on [1, 1.5]."""
    if not 0.0 <= snr_normalized <= 0.5:
        raise DomainError(f"normalized SNR must be in [0, 0.5], got {snr_normalized}")
    return 1.0 + snr_normalized


def compose_normalized_metric(base: float, f: float, g: float, h: float) -> float:
    """Final composition min(1, base * f * g / h)."""
    if h < 1.0:
        raise DomainError(f"imbalance factor h must be >= 1, got {h}")
    return min(1.0, base * f * g / h)


def evaluate(
    task: TaskKind,
    y_true: Sequence,
    y_pred: Sequence,
    d: int,
    n_train: int,
    *,
    y_prob: Optional[Sequence] = None,
    class_sizes: Optional[Sequence[int]] = None,
) -> MetricBreakdown:
    """Compute the full normalized-metric breakdown for one evaluation.

    The task kind picks the base metric, the SNR formula and the imbalance
    penalty h: binary uses accuracy, the correct-count SNR and the
    majority/minority penalty; multiclass uses accuracy, the confusion-based
    SNR and the mean class-to-majority penalty; regression uses 1 - MAPE and
    the residual SNR with no imbalance penalty; clustering uses NMI, maps
    each cluster to its majority true label, scores the mapping with the
    multiclass SNR on one-hot vectors, and penalizes uneven cluster sizes.

    y_true / y_pred hold class indices for classification, true class ids
    and cluster ids (any integers) for clustering, and real values for
    regression.  y_prob is the per-sample probability of the predicted
    class (binary) or the per-sample probability vector over all classes
    (multiclass).  d is the feature count (target excluded) and n_train the
    training-set size.

    class_sizes are the per-class (clustering: per-cluster) counts h is
    computed from, one per probability column for multiclass; every task
    but regression needs them, and the caller chooses their source.
    `run_curve` counts the whole training pool (clustering: the fitted
    model's training assignments); the `evaluate` command counts the
    predictions file's y_true (clustering: y_pred).

    Each array argument is read once and held to its input_rules rule: a ragged
    one, or one of the wrong dimension, raises ShapeError; a bad value, DomainError.
    """
    if class_sizes is None and task.has_class_targets:
        raise ConfigurationError(f"{task.value} evaluation needs class sizes for the imbalance ratio")
    if y_prob is None and task in (TaskKind.BINARY_CLASSIFICATION, TaskKind.MULTICLASS_CLASSIFICATION):
        raise ConfigurationError(f"{task.value} evaluation needs per-sample predicted probabilities")
    if multiclass := task is TaskKind.MULTICLASS_CLASSIFICATION:  # its column count sets the labels' range
        y_prob = _read("y_prob", y_prob, 2, form=_PROBABILITY_ROWS)
    rules = input_rules(task, y_prob.shape[1] if multiclass else 2)  # each applied where its argument is read
    y_true, y_pred = _as_equal_length(_read("y_true", y_true, rule=None if multiclass else rules["y_true"]),
                                      _read("y_pred", y_pred, rule=rules["y_pred"]))

    f = dimensionality_factor(d, n_train)

    if task is TaskKind.BINARY_CLASSIFICATION:
        base = accuracy(y_true, y_pred)
        snr_db = snr_binary(y_true, y_pred, y_prob)
        ratio = class_imbalance_ratio(class_sizes)
        h = imbalance_adjustment_binary(ratio)
    elif task is TaskKind.MULTICLASS_CLASSIFICATION:
        base = accuracy(y_true, y_pred)
        snr_db = snr_multiclass(y_true, y_prob)
        ratio = average_class_imbalance_ratio(class_sizes)  # which reads them as 1-D, so len() holds
        if len(class_sizes) != y_prob.shape[1]:
            raise ShapeError(f"class_sizes has {len(class_sizes)} sizes but y_prob has {y_prob.shape[1]} columns")
        h = imbalance_adjustment_multiclass(ratio)
    elif task is TaskKind.REGRESSION:
        base = mape_score(y_true, y_pred)
        snr_db = snr_regression(y_true, y_pred)
        ratio = h = 1.0
    else:  # TaskKind.CLUSTERING
        # class and cluster ids are names, numbered 0.. in sorted order
        table = _contingency(y_true.astype(int), y_pred.astype(int))
        a, b, count, row, _ = table
        if row.size < 2:
            raise DegenerateDistributionError("clustering evaluation needs at least 2 true classes")
        base = _nmi_of_table(*table)
        # each cluster votes for its majority class, the first of its pairs by count and then
        # class, so ties go low; hits[c] counts the rows of class c whose cluster voted c.
        # This is snr_multiclass on one-hot votes, bit for bit: the signal is the squared
        # confusion diagonal, a wrong vote lies at squared distance 2 from its true one-hot
        # vector and a right one at 0, and every sum is an integer below 2**53, so exact.
        order = np.lexsort((a, -count, b))
        votes = order[np.diff(b[order], prepend=-1) != 0]
        hits = np.bincount(a[votes], weights=count[votes], minlength=row.size)
        snr_db = _decibels(float(np.sum(hits**2)), 2.0 * (y_true.size - float(np.sum(hits))))
        ratio = average_class_imbalance_ratio(class_sizes)
        h = imbalance_adjustment_multiclass(ratio)

    snr_norm = normalize_snr(snr_db)
    g = snr_adjustment(snr_norm)
    normalized = compose_normalized_metric(base, f, g, h)
    return MetricBreakdown(
        base=base,
        dim_factor_f=f,
        snr_db=snr_db,
        snr_normalized=snr_norm,
        snr_factor_g=g,
        imbalance_ratio=ratio,
        imbalance_factor_h=h,
        normalized=normalized,
    )
