"""Seeded synthetic dataset generators for experiments and sanity checks."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .data import Dataset
from .exceptions import DomainError
from .factors import TaskKind
from .metrics import _read

__all__ = ["make_binary_classification", "make_blobs", "make_regression"]

# make_binary_classification: logit standard deviation, logit offset, share of
# flipped labels, and pairwise feature correlation
WEIGHT_SCALE = 3.5
INTERCEPT = -2.0
LABEL_NOISE = 0.1
FEATURE_CORRELATION = 0.92
# make_regression: the level the targets sit at, away from zero
REGRESSION_OFFSET = 20.0


def _feature_names(d: int) -> list[str]:
    return [f"x{i}" for i in range(d)]


def make_binary_classification(n: int, d: int = 13, seed: int = 0) -> Dataset:
    """Binary labels from a logistic model over correlated Gaussian features.

    Features share a common factor (pairwise correlation
    FEATURE_CORRELATION) and the true weight vector alternates in sign, so
    the signal lives in feature contrasts — the low-variance directions of
    the design.  Every feature is equally informative and the Bayes accuracy
    is set by WEIGHT_SCALE (the logit standard deviation), but a learner
    needs many samples per feature to resolve the contrast directions, which
    makes the learning curve climb slowly instead of saturating immediately.
    INTERCEPT skews the class balance, and a LABEL_NOISE fraction of labels
    (in expectation) is flipped afterwards, capping how confident any
    well-calibrated model can be.
    """
    if n < 1 or d < 1:
        raise DomainError(f"n and d must be positive, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    rho = FEATURE_CORRELATION
    common = rng.standard_normal((n, 1))
    X = np.sqrt(rho) * common + np.sqrt(1.0 - rho) * rng.standard_normal((n, d))
    signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    w = signs - signs.mean() if d > 1 else signs
    # zero-sum weights cancel the common factor, so the logit X.w is a pure
    # contrast; scale it to standard deviation WEIGHT_SCALE exactly
    w *= WEIGHT_SCALE / np.sqrt((1.0 - rho) * np.sum(w * w))
    p = 1.0 / (1.0 + np.exp(-(X @ w + INTERCEPT)))
    y = (rng.random(n) < p).astype(int)
    flips = rng.random(n) < LABEL_NOISE
    y[flips] = 1 - y[flips]
    return Dataset(
        feature_names=_feature_names(d),
        features=X,
        target=y,
        task=TaskKind.BINARY_CLASSIFICATION,
        target_name="label",
    )


def make_blobs(
    n: int,
    d: int = 4,
    n_classes: int = 3,
    seed: int = 0,
    *,
    spread: float = 1.0,
    weights: Optional[Sequence[float]] = None,
    task: TaskKind = TaskKind.MULTICLASS_CLASSIFICATION,
) -> Dataset:
    """Gaussian blobs, one per class, with optional class weights.

    Centers are drawn uniformly in [-4, 4]^d; each point is its class
    center plus isotropic noise of the given spread.  weights (normalized
    internally) skew the class sizes; the default is balanced.
    """
    if n < n_classes or n_classes < 2 or d < 1:
        raise DomainError(f"need n >= n_classes >= 2 and d >= 1, got n={n}, k={n_classes}, d={d}")
    rng = np.random.default_rng(seed)
    if weights is None:
        probs = np.full(n_classes, 1.0 / n_classes)
    else:
        with np.errstate(over="ignore"):  # a sum past the float range is no finite total
            total = (probs := _read("weights", weights)).sum()
        if probs.size != n_classes or not (probs > 0).all() or total == np.inf:
            raise DomainError(f"weights must be {n_classes} positive values with a finite sum, got {weights}")
        probs = probs / total
    centers = rng.uniform(-4.0, 4.0, size=(n_classes, d))
    y = rng.choice(n_classes, size=n, p=probs)
    X = centers[y] + spread * rng.standard_normal((n, d))
    return Dataset(
        feature_names=_feature_names(d),
        features=X,
        target=y,
        task=task,
        target_name="label",
    )


def make_regression(
    n: int,
    d: int = 5,
    seed: int = 0,
    *,
    noise: float = 1.0,
) -> Dataset:
    """Linear-with-noise regression data with targets bounded away from zero.

    y = REGRESSION_OFFSET + 3 * x.w + noise * eps with a unit-length
    weight vector, so targets sit near the offset and percentage errors
    stay meaningful.
    """
    if n < 1 or d < 1:
        raise DomainError(f"n and d must be positive, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    y = REGRESSION_OFFSET + 3.0 * (X @ w) + noise * rng.standard_normal(n)
    return Dataset(
        feature_names=_feature_names(d),
        features=X,
        target=y,
        task=TaskKind.REGRESSION,
        target_name="y",
    )
