"""Minimal deterministic learners for the learning-curve harness.

Linear regression (normal equations with a tiny ridge fallback), logistic
regression (full-batch gradient descent, binary sigmoid or multinomial
softmax), and Lloyd's k-means.  All three are seeded and fully reproducible:
the same data and seed always produce the same model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .exceptions import DegenerateDistributionError, DivergenceError, DomainError
from .factors import _FINITE, integer_rule
from .metrics import _read

__all__ = [
    "LinearModel",
    "LogisticModel",
    "KMeansModel",
    "fit_linear",
    "fit_logistic",
    "fit_kmeans",
]

RIDGE_FALLBACK = 1e-8
KMEANS_MAX_ITERS = 100
_MATRIX = "feature matrix must be 2-D"  # how an X of another dimension is refused


@dataclass(frozen=True)
class LinearModel:
    """Least-squares linear predictor y = X @ weights + intercept."""

    weights: np.ndarray
    intercept: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions; ones that overflow raise DomainError."""
        try:
            with np.errstate(all="raise", under="ignore"):
                return _read("X", X, 2, cols=self.weights.size, form=_MATRIX) @ self.weights + self.intercept
        except FloatingPointError:
            raise DomainError("predictions too large: a product of weights and features overflows") from None


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
        """Class probabilities of a finite X; logits that overflow raise DomainError."""
        X = _read("X", X, 2, cols=self.weights.shape[1], rule=_FINITE, form=_MATRIX)
        binary = self.n_classes == 2
        try:
            with np.errstate(all="raise", under="ignore"):
                z = X @ self.weights[0] + self.intercepts[0] if binary else X @ self.weights.T + self.intercepts
        except FloatingPointError:
            raise DomainError("logits too large to score: a product of weights and features overflows") from None
        if binary:
            p = _sigmoid(z)
            return np.column_stack([1.0 - p, p])
        with np.errstate(over="ignore"):  # a shift past -1.8e308 goes to -inf, which exp sends to 0
            return _softmax(z)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


@dataclass(frozen=True)
class KMeansModel:
    """Fitted k-means: centroids plus the training assignments."""

    centroids: np.ndarray  # (k, d)
    assignments: np.ndarray  # cluster index per training sample

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _nearest_centroid(_read("X", X, 2, cols=self.centroids.shape[1], form=_MATRIX), self.centroids)


def _fit_inputs(X, y=None, rule=None) -> tuple:
    """X as a non-empty C-contiguous matrix of finite floats, and y, given a rule, as one float per row held to it."""
    if (X := _read("X", X, 2, rule=_FINITE, form=_MATRIX)).shape[0] == 0:
        raise DomainError("cannot fit on an empty dataset")
    y = None if rule is None else _read("y", y, rows=len(X), rule=rule)
    return np.ascontiguousarray(X), y  # a strided or F-ordered X is copied once, so a fit gets its C copy's bits


def fit_linear(X: np.ndarray, y: np.ndarray) -> LinearModel:
    """Ordinary least squares via the normal equations.

    Singular or numerically unusable systems (duplicated columns, constant
    features) fall back to a ridge-regularized solve with lambda = 1e-8,
    which keeps coefficients finite while leaving predictions on clean data
    effectively unchanged.  Sums or coefficients that overflow raise DomainError.
    """
    X, y = _fit_inputs(X, y, _FINITE)

    augmented = np.column_stack([X, np.ones(X.shape[0])])
    try:
        with np.errstate(all="raise", under="ignore"):
            gram = augmented.T @ augmented
            rhs = augmented.T @ y
            try:
                coef = np.linalg.solve(gram, rhs)
                usable = np.all(np.isfinite(coef)) and np.allclose(gram @ coef, rhs, rtol=1e-6, atol=1e-8)
            except np.linalg.LinAlgError:
                usable = False
            if not usable:
                coef = np.linalg.solve(gram + RIDGE_FALLBACK * np.eye(gram.shape[0]), rhs)
        finite = np.isfinite(coef).all()
    except FloatingPointError:
        finite = False
    if not finite:
        raise DomainError("values too large to fit: the normal equations overflow")
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


def _row_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) bit for bit.

    numpy adds fewer than 8 terms left to right from 0.0, so for few
    classes the columns are added in turn, the first plus 0.0 so that
    -0.0s sum to 0.0: a few column adds beat one short reduction per
    row.  From 8 terms up numpy keeps eight running sums, which a fold
    does not match; a copy of that order over columns was slower than
    sum itself, so those rows go to sum.
    """
    m = a.shape[-1]
    if m >= 8:
        return a.sum(axis=-1)
    total = np.add(a[..., 0], 0.0)
    for c in range(1, m):
        total += a[..., c]
    return total


def _softmax(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-wise softmax of the logits z, written into out (which may be z).

    The row max folds np.maximum over the class columns: one call per
    class, not one short reduction per row.  Max is exact in any order,
    and a shift by -0.0 for 0.0 only alters a zero that exp maps to 1, so
    the bits match z.max(axis=1).  The row sum is _row_sum, which keeps
    the bits of sum(axis=1).
    """
    top = np.maximum(z[:, 0], z[:, -1])
    for c in range(1, z.shape[1] - 1):
        np.maximum(top, z[:, c], out=top)
    ez = np.subtract(z, top[:, np.newaxis], out=out)
    np.exp(ez, out=ez)
    return np.divide(ez, _row_sum(ez)[:, np.newaxis], out=ez)


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
    buffers allocated once per fit.  This is a stack of one: the epoch loop
    (_descend) fits any number of training sets at once, each to these bits.

    Every reduction keeps numpy's order, because a float sum taken in
    another order rounds differently, and the weights, and so the CLI's
    fixed-seed output, are pinned bit for bit.  The products X @ w,
    X.T @ residual and residual.T @ X are np.dot calls into the BLAS
    routines that matmul calls; the softmax row sum is _row_sum, which
    keeps sum(axis=1)'s bits; the sigmoid's bias gradients, np.mean's
    pairwise sums, are one np.add.reduceat from a zeroed slot before each
    set's rows, and the softmax's is an einsum that adds the rows in
    order, as mean(axis=0) does.  Only the softmax row max, exact in any
    order, is folded over the class columns.  Bad settings raise
    DomainError; a run that overflows, or ends with non-finite weights,
    DivergenceError.
    """
    return next(_fit_logistic_stack([(X, y, seed)], n_classes, epochs, learning_rate))


def _fit_logistic_stack(sets: Iterable, n_classes: int, epochs: int,
                        learning_rate: float) -> Iterator[LogisticModel]:
    """Yield fit_logistic(X, y, n_classes, epochs, learning_rate, seed) for each (X, y, seed) of sets, bit for bit.

    The settings are checked first, then the sets are drawn and checked in order up to the first that fails
    (drawing it may raise too).  The sets before it descend as one stack, their models are yielded, and then its
    error is raised.  If the stack overflows or ends with non-finite weights, each set descends alone as it is
    reached, so the first set that diverges raises its own DivergenceError.
    """
    if not (isinstance(epochs, (int, np.integer)) and epochs >= 1):
        raise DomainError(f"epochs must be a whole number >= 1, got {epochs!r}")
    if not 0 < learning_rate < np.inf:
        raise DomainError(f"learning rate must be finite and positive, got {learning_rate!r}")
    if n_classes < 2:
        raise DomainError(f"need at least 2 classes, got {n_classes}")
    stack, failure, labels = [], None, integer_rule(f"integer labels in [0, {n_classes})", 0, n_classes)
    try:
        for X, y, seed in sets:
            X, y = _fit_inputs(X, y, labels)
            if np.unique(y).size < 2:
                raise DegenerateDistributionError("training labels contain a single class")
            stack.append((X, y.astype(int), seed))
    except Exception as exc:  # raised once the sets before it are yielded
        failure = exc
    try:
        fits = _descend(stack, n_classes, epochs, learning_rate) if len(stack) > 1 else []
    except DivergenceError:
        fits = []
    for at, one in enumerate(stack):
        W, b = fits[at] if fits else _descend([one], n_classes, epochs, learning_rate)[0]
        yield LogisticModel(weights=np.atleast_2d(W), intercepts=np.atleast_1d(b), n_classes=n_classes)
    if failure is not None:
        raise failure


def _descend(stack: list, n_classes: int, epochs: int, learning_rate: float) -> list:
    """Each (X, y, seed) set's weights and intercepts after gradient descent, all sets in one epoch loop.

    Each set's rows follow a slot of its own in the shared buffers; its products are np.dot calls into views
    built once per fit, as W and b are updated in place.  The bias add, the activation, the target subtraction
    and the updates run once over all sets, and the slots' residuals are then zeroed, so one np.add.reduceat
    from the slots gives each sigmoid bias sum the bits of np.add.reduce from its zero identity.  No reduction
    crosses a set, so each set gets the bits of a descent on its own.  An overflow, or weights that end
    non-finite, raise DivergenceError naming the first set's training size.
    """
    sizes = np.array([y.size for _, y, _ in stack])
    starts = np.cumsum(counts := sizes + 1) - counts  # each set's slot, its rows right after it
    shape = () if (binary := n_classes == 2) else (n_classes,)
    W = np.array([0.01 * np.random.default_rng(seed).standard_normal((*shape, X.shape[1])) for X, _, seed in stack])
    b = np.zeros((len(stack), *shape))
    targets = np.zeros((counts.sum(), *shape))
    logits = np.zeros(targets.shape)  # a slot's logit, its bias plus 0 or the sigmoid's scratch in [0, 1], is finite
    residual = np.zeros(targets.shape) if binary else logits  # the softmax runs in place
    grad_W, grad_b = np.empty(W.shape), np.empty(b.shape)
    per_W, per_b = (sizes.reshape((-1,) + (1,) * (a.ndim - 1)) for a in (W, b))  # n of each set
    forward, backward = [], []  # each set's np.dot operands and output, and its residual: views into the buffers
    for i, ((X, y, _), start) in enumerate(zip(stack, starts.tolist())):
        targets[(at := slice(start + 1, start + 1 + y.size))] = y if binary else np.eye(n_classes)[y]
        forward.append((X, W[i] if binary else W[i].T, logits[at]))
        r = residual[at]
        backward.append(((X.T, r) if binary else (r.T, X)) + (grad_W[i], r, grad_b[i]))
    try:
        with np.errstate(all="raise", under="ignore"):
            for _ in range(epochs):
                for X, w, z in forward:
                    np.dot(X, w, out=z)
                logits += np.repeat(b, counts, axis=0) if len(stack) > 1 else b  # one set: b broadcasts
                _sigmoid(logits, out=residual) if binary else _softmax(logits, out=logits)
                residual -= targets
                residual[starts] = 0.0
                for x, r, g_W, rows, g_b in backward:
                    np.dot(x, r, out=g_W)
                    if not binary:  # einsum adds the rows in order, as mean(axis=0) does, with no (n, C) temporary
                        np.einsum("ij->j", rows, out=g_b)
                if binary:
                    np.add.reduceat(residual, starts, out=grad_b)
                W -= learning_rate * (grad_W / per_W)
                b -= learning_rate * (grad_b / per_b)
        finite = np.isfinite(W).all() and np.isfinite(b).all()
    except FloatingPointError:
        finite = False
    if not finite:
        raise DivergenceError(f"fit diverged at training size {sizes[0]}, learning rate {learning_rate!r}")
    return list(zip(W, b))


def _nearest_centroid(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    try:
        with np.errstate(all="raise", under="ignore"):
            distances = np.linalg.norm(X[:, np.newaxis, :] - centroids[np.newaxis, :, :], axis=2)
    except FloatingPointError:
        raise DomainError("features too large for k-means: a distance to a centroid overflows") from None
    return np.argmin(distances, axis=1)


def fit_kmeans(X: np.ndarray, k: int, seed: int = 0) -> KMeansModel:
    """Lloyd's algorithm with seeded initialization.

    Initial centroids are k distinct rows drawn with a seeded generator.
    A cluster that loses all members is reseeded to the row farthest from
    the centroid that row is assigned to, skipping rows already taken for a
    reseed in the same round.  Iteration stops when assignments stop changing or
    after KMEANS_MAX_ITERS rounds; the result is deterministic given the seed.
    """
    X, _ = _fit_inputs(X)
    n = X.shape[0]
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < k:
        raise DomainError(f"need at least k={k} samples, got {n}")

    rng = np.random.default_rng(seed)
    centroids = X[rng.choice(n, size=k, replace=False)].copy()
    assignments = _nearest_centroid(X, centroids)
    for _ in range(KMEANS_MAX_ITERS):
        taken: set[int] = set()
        for cluster in range(k):
            members = assignments == cluster
            if members.any():
                centroids[cluster] = X[members].mean(axis=0)
            else:
                distances = np.linalg.norm(X - centroids[assignments], axis=1)
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
