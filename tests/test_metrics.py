"""Unit tests for the base performance metrics."""

import math

import numpy as np
import pytest

from normetric import DomainError, ShapeError, accuracy, mape_score, nmi


def test_accuracy_identity():
    assert accuracy([0, 1, 1, 0], [0, 1, 1, 0]) == 1.0


def test_accuracy_half():
    assert accuracy([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5


def test_accuracy_majority_predictor():
    y_true = [0] * 75 + [1] * 25
    assert accuracy(y_true, [0] * 100) == 0.75


def test_accuracy_rejects_mismatch_and_empty():
    with pytest.raises(ShapeError):
        accuracy([0, 1], [0])
    with pytest.raises(DomainError):
        accuracy([], [])


def test_mape_score_exact():
    assert mape_score([100, 200], [100, 200]) == 1.0


def test_mape_score_ten_percent():
    assert mape_score([100, 200], [110, 180]) == pytest.approx(0.9, abs=1e-12)


def test_mape_score_floor():
    # error ratio 2.0 would push the score to -1; it is clamped at 0
    assert mape_score([10], [30]) == 0.0


def test_mape_score_rejects_zero_truth():
    with pytest.raises(DomainError):
        mape_score([0.0, 1.0], [1.0, 1.0])


def test_mape_score_scale_invariant():
    rng = np.random.default_rng(7)
    y = rng.uniform(1, 10, size=20)
    p = y + rng.normal(0, 0.5, size=20)
    assert mape_score(y * 37.0, p * 37.0) == pytest.approx(mape_score(y, p), abs=1e-12)


def test_nmi_perfect_under_relabeling():
    assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_nmi_independent_partitions():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_single_cluster_carries_no_information():
    assert nmi([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0


def test_nmi_both_single_cluster():
    assert nmi([0, 0, 0], [0, 0, 0]) == 1.0


def test_nmi_symmetric():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 3, size=40)
    b = rng.integers(0, 4, size=40)
    assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


def test_nmi_bounded():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.integers(0, 3, size=12)
        b = rng.integers(0, 3, size=12)
        value = nmi(a, b)
        assert 0.0 <= value <= 1.0 + 1e-12


def test_nmi_rejects_mismatched_lengths():
    with pytest.raises(ShapeError):
        nmi([0, 1], [0, 1, 2])
