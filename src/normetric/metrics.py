"""Base performance metrics: accuracy, 1 - MAPE and NMI."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .exceptions import DomainError, ShapeError

__all__ = ["accuracy", "mape_score", "nmi"]


def _read(name: str, values, ndim: int = 1, *, rows: Optional[int] = None, cols: Optional[int] = None,
          rule: Optional[tuple] = None, dtype=float, form: Optional[str] = None) -> np.ndarray:
    """The array argument `name`, read once, as an ndim-D array of floats (dtype None: numpy's dtype, for labels).

    ShapeError if it is ragged, of another dimension (worded by form), or not `rows` long or `cols` wide; DomainError
    naming it if float() cannot read a value, or at the first value (row, of a matrix) that breaks rule.
    """
    form = form or f"{name} must be {ndim}-D"
    try:
        array = np.asarray(values, dtype=dtype)
        array = array.astype(float) if array.dtype.kind == "O" else array  # labels numpy reads only as objects
    except (TypeError, ValueError, OverflowError) as error:
        if str(error).startswith("setting an array element with a sequence"):  # numpy's words for ragged
            raise ShapeError(f"{form}, got a ragged sequence") from None
        raise DomainError(f"{name} must hold numbers; {error}") from None
    if array.ndim != ndim:
        raise ShapeError(f"{form}, got ndim={array.ndim}")
    if rows is not None and len(array) != rows:
        raise ShapeError(f"{name} must have one value per row, got {array.shape} for {rows} rows")
    if cols is not None and array.shape[1] != cols:
        raise ShapeError(f"{name} must have {cols} columns, got {array.shape[1]}")
    if rule is not None and not (holds := rule[1](array)).all():
        at = int(np.argmin(holds.reshape(len(array), -1).all(axis=1)))
        raise DomainError(f"{name} must hold {rule[0]}; {name}[{at}] is {array[at].tolist()!r}")
    return array


def _as_equal_length(y_true, y_pred, dtype=None, names=("y_true", "y_pred")) -> tuple[np.ndarray, np.ndarray]:
    yt = _read(names[0], y_true, dtype=dtype)
    yp = _read(names[1], y_pred, rows=yt.size, dtype=dtype)
    if yt.size == 0:
        raise DomainError("metric undefined on empty sequences")
    return yt, yp


def accuracy(y_true: Sequence, y_pred: Sequence) -> float:
    """Fraction of predictions that match the true labels."""
    yt, yp = _as_equal_length(y_true, y_pred)
    return float(np.mean(yt == yp))


def mape_score(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """1 - MAPE, floored at 0 so the score stays in [0, 1].

    MAPE is mean(|y_pred - y_true| / |y_true|); it can exceed 1 on bad
    predictions, hence the floor.  Zero true values are rejected.
    """
    yt, yp = _as_equal_length(y_true, y_pred, float)
    if np.any(yt == 0.0):
        raise DomainError("MAPE is undefined when y_true contains zeros")
    try:
        with np.errstate(all="raise", under="ignore"):
            return max(0.0, 1.0 - float(np.mean(np.abs(yp - yt) / np.abs(yt))))
    except FloatingPointError:
        raise DomainError("regression values too large to score: an error overflows") from None


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-np.sum(p * np.log(p)))


def _contingency(labels_a: np.ndarray, labels_b: np.ndarray) -> tuple[np.ndarray, ...]:
    """The contingency table of two labelings, as the (a, b) label pairs that occur.

    Each side is numbered 0.. in sorted order.  Returns (a, b, count, row,
    col): the pairs in row-major order, the rows holding each pair, and the
    rows per a label and per b label.  Only the pairs that occur are kept,
    so memory grows with the rows, not with the product of the label counts.
    """
    _, a_idx = np.unique(labels_a, return_inverse=True)
    _, b_idx = np.unique(labels_b, return_inverse=True)
    n_b = int(b_idx.max()) + 1
    pairs, count = np.unique(a_idx * n_b + b_idx, return_counts=True)
    return pairs // n_b, pairs % n_b, count, np.bincount(a_idx), np.bincount(b_idx)


def _nmi_of_table(a: np.ndarray, b: np.ndarray, count: np.ndarray, row: np.ndarray, col: np.ndarray) -> float:
    # see nmi; the arguments are _contingency's table
    n = int(count.sum())
    h_a = _entropy(row, n)
    h_b = _entropy(col, n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0

    p_joint = count / n
    outer = row[a] * col[b] / (n * n)
    mutual_info = float(np.sum(p_joint * np.log(p_joint / outer)))
    if mutual_info < 0.0:  # floating-point dust on independent labelings
        mutual_info = 0.0
    value = mutual_info / ((h_a + h_b) / 2.0)
    return min(1.0, max(0.0, value))


def nmi(labels_a: Sequence[int], labels_b: Sequence[int]) -> float:
    """Normalized mutual information between two labelings, in [0, 1].

    Mutual information divided by the arithmetic mean of the two marginal
    entropies; symmetric and invariant under relabeling either side.  Two
    single-cluster partitions align perfectly (1.0); a single-cluster
    partition against a split one carries no information (0.0).
    """
    return _nmi_of_table(*_contingency(*_as_equal_length(labels_a, labels_b, names=("labels_a", "labels_b"))))
