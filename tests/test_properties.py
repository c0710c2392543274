"""Property-based and exhaustive small-instance tests.

The exhaustive section walks every binary truth/prediction pair up to six
samples and every multiclass labeling up to three classes, so the factor
range and sentinel rules are checked on the complete small-instance space,
not a sample of it.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from normetric import (
    TaskKind,
    average_class_imbalance_ratio,
    class_imbalance_ratio,
    compose_normalized_metric,
    dimensionality_factor,
    evaluate,
    imbalance_adjustment_binary,
    imbalance_adjustment_multiclass,
    mape_score,
    nmi,
    normalize_snr,
    snr_adjustment,
    snr_binary,
    snr_multiclass,
    snr_regression,
)

# sigmoid(x) rounds to exactly 1.0 in float64 near x = 37, so the strict
# upper bound on f holds whenever d/(0.05 n) - 1 stays safely below that
SANE = st.integers(min_value=1, max_value=30), st.integers(min_value=10, max_value=100000)


@settings(max_examples=2000, deadline=None)
@given(d=SANE[0], n=SANE[1])
def test_dimensionality_factor_range_and_monotonicity(d, n):
    f = dimensionality_factor(d, n)
    assert 1.0 <= f <= 1.5
    if d / (0.05 * n) - 1.0 < 36.0:  # below float sigmoid saturation
        assert f < 1.5
    assert dimensionality_factor(d, n + 1) <= f  # more data never raises the boost
    assert dimensionality_factor(d + 1, n) >= f  # more features never lower it


def test_neutrality_at_twenty_samples_per_feature():
    for d in range(1, 101):
        assert dimensionality_factor(d, 20 * d) == 1.0
        assert dimensionality_factor(d, 20 * d + 1) == 1.0
        assert dimensionality_factor(d, 20 * d - 1) > 1.0


@settings(max_examples=2000, deadline=None)
@given(x=st.floats(min_value=-50.0, max_value=80.0, allow_nan=False))
def test_normalize_snr_range_and_monotonicity(x):
    value = normalize_snr(x)
    assert 0.0 <= value <= 0.5
    assert normalize_snr(x + 0.5) >= value
    g = snr_adjustment(value)
    assert 1.0 <= g <= 1.5


@settings(max_examples=1000, deadline=None)
@given(
    majority=st.integers(min_value=1, max_value=10**6),
    minority=st.integers(min_value=1, max_value=10**6),
)
def test_binary_imbalance_factor_at_least_one(majority, minority):
    ci = class_imbalance_ratio([majority, minority])
    assert ci >= 1.0
    h = imbalance_adjustment_binary(ci)
    assert h >= 1.0
    if majority == minority:
        assert h == 1.0


@settings(max_examples=1000, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=6))
def test_acir_imbalance_factor_at_least_one(sizes):
    acir = average_class_imbalance_ratio(sizes)
    assert 0.0 < acir <= 1.0
    h = imbalance_adjustment_multiclass(acir)
    assert h >= 1.0
    if len(set(sizes)) == 1:
        assert acir == 1.0 and h == 1.0


@settings(max_examples=2000, deadline=None)
@given(
    base=st.floats(min_value=0.0, max_value=1.0),
    f=st.floats(min_value=1.0, max_value=1.5),
    g=st.floats(min_value=1.0, max_value=1.5),
    h=st.floats(min_value=1.0, max_value=4.0),
)
def test_composition_is_capped_and_ordered(base, f, g, h):
    value = compose_normalized_metric(base, f, g, h)
    assert 0.0 <= value <= 1.0
    assert value <= base * f * g / h + 1e-15


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_snr_permutation_invariance(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    y_true = rng.integers(0, 2, size=n)
    y_pred = rng.integers(0, 2, size=n)
    probs = rng.uniform(0.5, 1.0, size=n)
    perm = rng.permutation(n)
    before = snr_binary(y_true, y_pred, probs)
    after = snr_binary(y_true[perm], y_pred[perm], probs[perm])
    if math.isinf(before):
        assert before == after
    else:
        # summation order may differ by a few ulps under permutation
        assert after == pytest.approx(before, abs=1e-9)

    reals = rng.uniform(1.0, 10.0, size=n)
    preds = reals + rng.normal(size=n)
    assert snr_regression(reals, preds) == pytest.approx(
        snr_regression(reals[perm], preds[perm]), abs=1e-12
    )


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_nmi_relabeling_invariance(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    a = rng.integers(0, 3, size=n)
    b = rng.integers(0, 3, size=n)
    swapped = np.array([2, 0, 1])[a]  # bijective relabeling of a
    assert nmi(a, b) == pytest.approx(nmi(swapped, b), abs=1e-12)
    assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_mape_score_scale_invariance(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    y = rng.uniform(0.5, 10.0, size=n)
    p = y * rng.uniform(0.5, 1.5, size=n)
    scale = data.draw(st.floats(min_value=0.01, max_value=100.0))
    assert mape_score(y * scale, p * scale) == pytest.approx(mape_score(y, p), abs=1e-9)


PROB_GRID = (0.5, 0.8, 1.0)


def test_exhaustive_binary_small_instances():
    """Every truth/prediction pair with <= 6 samples on a coarse probability grid."""
    checked = 0
    for n in range(1, 7):
        for y_true in itertools.product((0, 1), repeat=n):
            for y_pred in itertools.product((0, 1), repeat=n):
                probs = [PROB_GRID[(i + n) % 3] for i in range(n)]
                snr = snr_binary(y_true, y_pred, probs)
                correct = sum(t == p for t, p in zip(y_true, y_pred))
                noise = sum((1.0 - q) ** 2 for q in probs)
                if correct and noise:
                    assert snr == pytest.approx(10.0 * math.log10(correct / noise), abs=1e-12)
                elif correct:
                    assert snr == math.inf
                else:
                    assert snr == -math.inf
                norm = normalize_snr(snr)
                assert 0.0 <= norm <= 0.5
                assert 1.0 <= snr_adjustment(norm) <= 1.5
                checked += 1
    assert checked == sum(4**n for n in range(1, 7))


def test_exhaustive_multiclass_small_instances():
    """Every labeling over 3 classes with <= 4 samples, one-hot probabilities."""
    for n in range(1, 5):
        for y_true in itertools.product((0, 1, 2), repeat=n):
            for y_pred in itertools.product((0, 1, 2), repeat=n):
                probs = np.zeros((n, 3))
                probs[np.arange(n), y_pred] = 1.0
                snr = snr_multiclass(y_true, probs)
                if y_true == y_pred:
                    assert snr == math.inf
                else:
                    assert snr < math.inf
                norm = normalize_snr(snr)
                assert 1.0 <= snr_adjustment(norm) <= 1.5


@st.composite
def clusterings(draw):
    """True labels and cluster ids as arbitrary names: -1, gaps, ties and single clusters."""
    n = draw(st.integers(min_value=2, max_value=40))
    classes = draw(st.lists(st.sampled_from([0, 1, 2, 4, 7, 50]), min_size=2, max_size=5, unique=True))
    ids = draw(st.lists(st.sampled_from([-1, 0, 1, 2, 5, 1000]), min_size=1, max_size=6, unique=True))
    y_true = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n).filter(lambda v: len(set(v)) > 1))
    clusters = draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
    return y_true, clusters


@settings(max_examples=600, deadline=None)
@given(case=clusterings())
def test_clustering_snr_is_the_multiclass_snr_of_one_hot_majority_votes(case):
    y_true, clusters = case
    names = sorted(set(y_true))
    truth = [names.index(t) for t in y_true]
    votes = [names.index(v) for v in ref.ref_majority_votes(y_true, clusters)]
    one_hot = [[1.0 if j == v else 0.0 for j in range(len(names))] for v in votes]
    got = evaluate(TaskKind.CLUSTERING, y_true, clusters, d=2, n_train=30, class_sizes=[1, 1])
    assert got.snr_db == ref.ref_snr_multiclass(truth, votes, one_hot)


def test_exhaustive_imbalance_small_class_sizes():
    for a, b in itertools.product(range(1, 7), repeat=2):
        ci = class_imbalance_ratio([a, b])
        assert ci == max(a, b) / min(a, b)
        assert imbalance_adjustment_binary(ci) >= 1.0
    for sizes in itertools.product(range(1, 7), repeat=3):
        acir = average_class_imbalance_ratio(sizes)
        assert imbalance_adjustment_multiclass(acir) >= 1.0
