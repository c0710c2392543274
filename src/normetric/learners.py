"""Minimal deterministic learners for the learning-curve harness.

Linear regression (normal equations with a tiny ridge fallback), logistic
regression (full-batch gradient descent, binary sigmoid or multinomial
softmax), and Lloyd's k-means.  All three are seeded and fully reproducible:
the same data and seed always produce the same model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import DegenerateDistributionError, DivergenceError, DomainError, ShapeError

__all__ = [
    "LinearModel",
    "LogisticModel",
    "KMeansModel",
    "fit_linear",
    "fit_logistic",
    "fit_kmeans",
]

RIDGE_FALLBACK = 1e-8


@dataclass(frozen=True)
class LinearModel:
    """Least-squares linear predictor y = X @ weights + intercept."""

    weights: np.ndarray
    intercept: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.weights + self.intercept


@dataclass(frozen=True)
class LogisticModel:
    """Linear classifier with calibrated probabilities.

    Binary models hold a single weight row (sigmoid); multinomial models
    hold one row per class (softmax).  predict_proba always returns an
    (n_samples, n_classes) matrix whose rows sum to 1.
    """

    weights: np.ndarray  # (1, d) binary, (C, d) multinomial
    intercepts: np.ndarray
    n_classes: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.n_classes == 2:
            p = _sigmoid(X @ self.weights[0] + self.intercepts[0])
            return np.column_stack([1.0 - p, p])
        return _softmax(X @ self.weights.T + self.intercepts)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


@dataclass(frozen=True)
class KMeansModel:
    """Fitted k-means: centroids plus the training assignments."""

    centroids: np.ndarray  # (k, d)
    assignments: np.ndarray  # cluster index per training sample

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _nearest_centroid(np.asarray(X, dtype=float), self.centroids)


def _check_2d_features(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"feature matrix must be 2-D, got ndim={X.ndim}")
    return X


def fit_linear(X: np.ndarray, y: np.ndarray) -> LinearModel:
    """Ordinary least squares via the normal equations.

    Singular or numerically unusable systems (duplicated columns, constant
    features) fall back to a ridge-regularized solve with lambda = 1e-8,
    which keeps coefficients finite while leaving predictions on clean data
    effectively unchanged.
    """
    X = _check_2d_features(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0:
        raise DomainError("cannot fit on an empty dataset")
    if y.shape != (X.shape[0],):
        raise ShapeError(f"y must have one value per row, got {y.shape} for {X.shape[0]} rows")

    augmented = np.column_stack([X, np.ones(X.shape[0])])
    gram = augmented.T @ augmented
    rhs = augmented.T @ y
    try:
        coef = np.linalg.solve(gram, rhs)
        usable = np.all(np.isfinite(coef)) and np.allclose(gram @ coef, rhs, rtol=1e-6, atol=1e-8)
    except np.linalg.LinAlgError:
        usable = False
    if not usable:
        coef = np.linalg.solve(gram + RIDGE_FALLBACK * np.eye(gram.shape[0]), rhs)
    return LinearModel(weights=coef[:-1], intercept=float(coef[-1]))


def _sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic function of z, with no overflow and no branch.

    e = exp(-|z|) never overflows.  The result is 1/(1+e) where z >= 0 and
    e/(1+e) below, computed as a numerator max(e, [z >= 0]) over 1 + e:
    e lies in [0, 1], so the numerator is 1 or e exactly.  Given out, the
    result lands there and z, which must not be out, is overwritten as
    scratch, so a caller that owns both buffers allocates nothing.
    """
    e = np.copysign(z, -1.0, out=out)  # -|z|
    np.exp(e, out=e)
    scratch = None if out is None else z
    numerator = np.maximum(e, np.greater_equal(z, 0.0, out=scratch), out=scratch)
    denom = np.add(1.0, e, out=e)
    return np.divide(numerator, denom, out=e)


def _softmax(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-wise softmax of the logits z, written into out (which may be z).

    The row max folds np.maximum over the class columns: one call per
    class, not one short reduction per row.  Max is exact in any order,
    and a shift by -0.0 for 0.0 only alters a zero that exp maps to 1, so
    the bits match z.max(axis=1).  The row sum must stay sum(axis=1):
    numpy adds a row in its own order, with eight accumulators from
    eight terms up, and a fold over the columns would round differently.
    """
    top = np.maximum(z[:, 0], z[:, -1])
    for c in range(1, z.shape[1] - 1):
        np.maximum(top, z[:, c], out=top)
    ez = np.subtract(z, top[:, np.newaxis], out=out)
    np.exp(ez, out=ez)
    return np.divide(ez, ez.sum(axis=1, keepdims=True), out=ez)


def _binary_grads(w, b, X, y, work=(None, None)):
    """Gradients of the mean cross-entropy of a sigmoid model.

    work holds two n-vectors, the logits and the residual, that training
    allocates once per fit; by default each call allocates its own.
    """
    n = X.shape[0]
    z = np.matmul(X, w, out=work[0])
    z += b
    residual = _sigmoid(z, out=work[1])
    residual -= y
    return (X.T @ residual) / n, float(np.add.reduce(residual)) / n


def _softmax_grads(W, b, X, y_onehot, work=None):
    """Gradients of the mean cross-entropy of a softmax model.

    work, an (n, C) array that training allocates once per fit, receives
    the logits, then the probabilities and the residual in place.
    """
    n = X.shape[0]
    z = np.matmul(X, W.T, out=work)
    z += b
    residual = _softmax(z, out=z)
    residual -= y_onehot
    # accumulate adds the rows in order, as mean(axis=0) does, in fewer steps
    return (residual.T @ X) / n, np.add.accumulate(residual, axis=0)[-1] / n


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    epochs: int = 500,
    learning_rate: float = 0.1,
    seed: int = 0,
) -> LogisticModel:
    """Full-batch gradient descent on the cross-entropy loss.

    Deterministic given the seed: weights start from a seeded normal draw
    and every epoch consumes the whole batch in order.  Binary problems use
    the sigmoid parameterization, larger ones multinomial softmax.  Epochs
    compute only the residual and the gradients, never the loss itself, in
    buffers allocated once per fit.

    Every reduction keeps numpy's order, because a float sum taken in
    another order rounds differently, and the weights, and so the CLI's
    fixed-seed output, are pinned bit for bit.  The gradients come from
    the BLAS products X.T @ residual and residual.T @ X; the softmax row
    sum stays sum(axis=1); the sigmoid's bias gradient is the pairwise
    np.add.reduce that np.mean runs, and the softmax's adds the rows in
    order, as mean(axis=0) does.  Only the softmax row max, which is
    exact in any order, is folded over the class columns.  A run that
    overflows, or ends with non-finite weights, raises DivergenceError.
    """
    X = _check_2d_features(X)
    y = np.asarray(y, dtype=int)
    if X.shape[0] == 0:
        raise DomainError("cannot fit on an empty dataset")
    if y.shape != (X.shape[0],):
        raise ShapeError(f"y must have one label per row, got {y.shape} for {X.shape[0]} rows")
    if epochs < 1:
        raise DomainError(f"epochs must be >= 1, got {epochs}")
    if learning_rate <= 0:
        raise DomainError(f"learning rate must be positive, got {learning_rate}")
    if n_classes < 2:
        raise DomainError(f"need at least 2 classes, got {n_classes}")
    if y.min() < 0 or y.max() >= n_classes:
        raise DomainError(f"labels must lie in [0, {n_classes})")
    if np.unique(y).size < 2:
        raise DegenerateDistributionError("training labels contain a single class")

    rng = np.random.default_rng(seed)
    d = X.shape[1]
    try:
        with np.errstate(all="raise", under="ignore"):
            if n_classes == 2:
                w = 0.01 * rng.standard_normal(d)
                b = 0.0
                yf = y.astype(float)
                work = (np.empty(y.size), np.empty(y.size))
                for _ in range(epochs):
                    grad_w, grad_b = _binary_grads(w, b, X, yf, work)
                    w = w - learning_rate * grad_w
                    b = b - learning_rate * grad_b
                model = LogisticModel(weights=w[np.newaxis, :], intercepts=np.array([b]), n_classes=2)
            else:
                W = 0.01 * rng.standard_normal((n_classes, d))
                b = np.zeros(n_classes)
                onehot = np.zeros((y.size, n_classes))
                onehot[np.arange(y.size), y] = 1.0
                work = np.empty((y.size, n_classes))
                for _ in range(epochs):
                    grad_W, grad_b = _softmax_grads(W, b, X, onehot, work)
                    W = W - learning_rate * grad_W
                    b = b - learning_rate * grad_b
                model = LogisticModel(weights=W, intercepts=b, n_classes=n_classes)
    except FloatingPointError:
        model = None
    if model is None or not (np.isfinite(model.weights).all() and np.isfinite(model.intercepts).all()):
        raise DivergenceError(f"fit diverged at training size {y.size}, learning rate {learning_rate!r}")
    return model


def _nearest_centroid(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    distances = np.linalg.norm(X[:, np.newaxis, :] - centroids[np.newaxis, :, :], axis=2)
    return np.argmin(distances, axis=1)


def fit_kmeans(X: np.ndarray, k: int, max_iters: int = 100, seed: int = 0) -> KMeansModel:
    """Lloyd's algorithm with seeded initialization.

    Initial centroids are k distinct rows drawn with a seeded generator.
    A cluster that loses all members is reseeded to the point farthest from
    its stale centroid.  Iteration stops when assignments stop changing or
    max_iters is reached; the result is deterministic given the seed.
    """
    X = _check_2d_features(X)
    n = X.shape[0]
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < k:
        raise DomainError(f"need at least k={k} samples, got {n}")
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters}")

    rng = np.random.default_rng(seed)
    centroids = X[rng.choice(n, size=k, replace=False)].copy()
    assignments = _nearest_centroid(X, centroids)
    for _ in range(max_iters):
        taken: set[int] = set()
        for cluster in range(k):
            members = assignments == cluster
            if members.any():
                centroids[cluster] = X[members].mean(axis=0)
            else:
                distances = np.linalg.norm(X - centroids[cluster], axis=1)
                for idx in np.argsort(-distances, kind="stable"):
                    if int(idx) not in taken:
                        centroids[cluster] = X[idx]
                        taken.add(int(idx))
                        break
        new_assignments = _nearest_centroid(X, centroids)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return KMeansModel(centroids=centroids, assignments=assignments)
