"""Unit tests for the built-in learners."""

import numpy as np
import pytest

import reference as ref
from normetric import DegenerateDistributionError, DivergenceError, DomainError, ShapeError
from normetric.learners import (
    LogisticModel,
    _binary_grads,
    _sigmoid,
    _softmax,
    _softmax_grads,
    fit_kmeans,
    fit_linear,
    fit_logistic,
)


def test_linear_exact_fit():
    X = np.array([[1.0], [2.0], [3.0]])
    model = fit_linear(X, np.array([2.0, 4.0, 6.0]))
    assert model.weights[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(model.predict(X), [2.0, 4.0, 6.0], atol=1e-9)


def test_linear_constant_target():
    X = np.random.default_rng(1).normal(size=(6, 2))
    model = fit_linear(X, np.full(6, 5.0))
    np.testing.assert_allclose(model.weights, 0.0, atol=1e-9)
    assert model.intercept == pytest.approx(5.0, abs=1e-9)


def test_linear_duplicated_columns_still_predicts():
    """A singular normal system falls back to ridge but keeps the fit."""
    rng = np.random.default_rng(0)
    base = rng.normal(size=(30, 2))
    X = np.column_stack([base, base[:, 0]])  # exact duplicate column
    y = 3.0 * base[:, 0] - base[:, 1] + 0.5
    model = fit_linear(X, y)
    assert np.all(np.isfinite(model.weights))
    np.testing.assert_allclose(model.predict(X), y, atol=1e-6)


def test_linear_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        fit_linear(np.zeros(3), np.zeros(3))
    with pytest.raises(ShapeError):
        fit_linear(np.zeros((3, 2)), np.zeros(4))


def _finite_difference(fn, params, eps=1e-6):
    grad = np.zeros_like(params)
    flat = params.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = fn()
        flat[i] = old - eps
        down = fn()
        flat[i] = old
        grad.ravel()[i] = (up - down) / (2 * eps)
    return grad


def test_binary_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12).astype(float)
    w = rng.normal(size=3) * 0.5
    b = 0.3

    grad_w_fd = _finite_difference(lambda: ref.binary_cross_entropy(w, b, X, y), w)
    grad_w, grad_b = _binary_grads(w, b, X, y)
    np.testing.assert_allclose(grad_w, grad_w_fd, atol=1e-7)

    eps = 1e-6
    up = ref.binary_cross_entropy(w, b + eps, X, y)
    down = ref.binary_cross_entropy(w, b - eps, X, y)
    assert grad_b == pytest.approx((up - down) / (2 * eps), abs=1e-7)


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(10, 4))
    y = rng.integers(0, 3, size=10)
    onehot = np.zeros((10, 3))
    onehot[np.arange(10), y] = 1.0
    W = rng.normal(size=(3, 4)) * 0.5
    b = rng.normal(size=3) * 0.1

    grad_W_fd = _finite_difference(lambda: ref.softmax_cross_entropy(W, b, X, onehot), W)
    grad_b_fd = _finite_difference(lambda: ref.softmax_cross_entropy(W, b, X, onehot), b)
    grad_W, grad_b = _softmax_grads(W, b, X, onehot)
    np.testing.assert_allclose(grad_W, grad_W_fd, atol=1e-7)
    np.testing.assert_allclose(grad_b, grad_b_fd, atol=1e-7)


def test_sigmoid_matches_masked_form_bitwise():
    edges = [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 709.0, -709.0, 745.0, -745.0,
             746.0, -746.0, 1e308, -1e308, np.inf, -np.inf]
    z = np.concatenate([edges, np.linspace(-800.0, 800.0, 20001)])
    got, want = _sigmoid(z), ref.ref_masked_sigmoid(z)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.isnan(_sigmoid(np.array([np.nan]))).all()  # NaN stays NaN; its sign bit is not pinned


# n, d, classes, learning rate, feature scale, epochs; the scales of 100 and
# more push |z| past 745, where exp underflows on one sigmoid branch and the
# softmax shift decides which class keeps all the mass
BIT_IDENTITY_CASES = [
    (40, 3, 2, 0.1, 1.0, 200),
    (257, 13, 2, 1.0, 1.0, 300),
    (90, 1, 2, 2.5, 0.01, 150),
    (64, 6, 2, 0.5, 300.0, 120),
    (33, 20, 2, 1.0, 5000.0, 80),
    (120, 4, 3, 0.1, 1.0, 200),
    (75, 9, 3, 2.0, 10.0, 150),
    (50, 2, 3, 1.0, 1000.0, 100),
    (200, 13, 5, 0.3, 1.0, 250),
    (45, 7, 5, 3.0, 0.1, 150),
    (80, 5, 5, 0.7, 800.0, 100),
    (1000, 13, 2, 1.0, 1.0, 60),
    # C >= 8 takes numpy's pairwise row sum; n > 1024 spans several reduction blocks
    (150, 13, 8, 1.0, 1.0, 120),
    (90, 6, 8, 2.0, 500.0, 80),
    (160, 13, 12, 0.5, 1.0, 120),
    (70, 4, 12, 1.5, 2000.0, 80),
    (1500, 13, 4, 1.0, 1.0, 60),
    (2100, 9, 12, 0.3, 50.0, 40),
    (1300, 7, 2, 2.0, 300.0, 60),
]


@pytest.mark.parametrize("case", range(len(BIT_IDENTITY_CASES)))
def test_fit_logistic_equals_loss_evaluating_loop_bitwise(case):
    n, d, n_classes, learning_rate, scale, epochs = BIT_IDENTITY_CASES[case]
    rng = np.random.default_rng(1000 + case)
    X = rng.normal(size=(n, d)) * scale
    y = rng.integers(0, n_classes, size=n)
    y[:n_classes] = np.arange(n_classes)
    model = fit_logistic(X, y, n_classes, epochs=epochs, learning_rate=learning_rate, seed=case)
    weights, intercepts = ref.ref_fit_logistic_with_loss(X, y, n_classes, epochs, learning_rate, case)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.intercepts, intercepts)


@pytest.mark.parametrize("n_classes", [3, 4, 8, 12])
def test_softmax_equals_the_row_max_reduction_bitwise(n_classes):
    """The column-fold row max gives the bits of z.max(axis=1), extremes and ties included."""
    rng = np.random.default_rng(n_classes)
    extremes = np.array([0.0, -0.0, 746.0, -746.0, 745.5, -745.5, 1e308, -1e308, 3.25, -2.0])
    logits = np.vstack([
        rng.choice(extremes, size=(400, n_classes)),
        rng.normal(size=(400, n_classes)) * 300.0,
        np.full((1, n_classes), -1e308),
    ])
    model = LogisticModel(weights=np.eye(n_classes), intercepts=np.zeros(n_classes), n_classes=n_classes)
    in_place = logits.copy()
    with np.errstate(over="ignore"):  # -1e308 - 1e308 overflows to -inf, which exp sends to 0
        want = ref.ref_softmax(logits @ model.weights.T + model.intercepts)
        assert np.array_equal(model.predict_proba(logits), want)
        assert _softmax(in_place, out=in_place) is in_place
        assert np.array_equal(in_place, ref.ref_softmax(logits))


def test_logistic_separable_blobs_reach_perfect_training_accuracy():
    rng = np.random.default_rng(1)
    a = rng.normal(loc=(-3, -3), scale=0.5, size=(20, 2))
    b = rng.normal(loc=(3, 3), scale=0.5, size=(20, 2))
    X = np.vstack([a, b])
    y = np.array([0] * 20 + [1] * 20)
    model = fit_logistic(X, y, n_classes=2, epochs=500, learning_rate=0.1, seed=0)
    assert np.mean(model.predict(X) == y) == 1.0


def test_logistic_probabilities_are_proper():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 3, size=30)
    model = fit_logistic(X, y, n_classes=3, epochs=50)
    probs = model.predict_proba(X)
    assert probs.shape == (30, 3)
    assert probs.min() > 0.0 and probs.max() < 1.0
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_logistic_deterministic_given_seed():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 2))
    y = rng.integers(0, 2, size=25)
    m1 = fit_logistic(X, y, n_classes=2, epochs=40, seed=11)
    m2 = fit_logistic(X, y, n_classes=2, epochs=40, seed=11)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    np.testing.assert_array_equal(m1.intercepts, m2.intercepts)


def test_logistic_rejects_degenerate_labels():
    X = np.zeros((5, 2))
    with pytest.raises(DegenerateDistributionError):
        fit_logistic(X, np.zeros(5, dtype=int), n_classes=2)
    with pytest.raises(DomainError):
        fit_logistic(X, np.array([0, 1, 0, 1, 2]), n_classes=2)


@pytest.mark.parametrize("n_classes", [2, 3])
def test_logistic_divergence_is_reported(n_classes):
    """An overflowing run, or one fed a NaN feature, raises instead of returning junk weights."""
    rng = np.random.default_rng(4)
    X = 1e10 * rng.standard_normal((40, 3))  # the first step, about 1e300 * 1e10, overflows
    y = np.arange(40) % n_classes
    with pytest.raises(DivergenceError, match="training size 40, learning rate 1e\\+300"):
        fit_logistic(X, y, n_classes, epochs=50, learning_rate=1e300)
    X[5, 1] = np.nan
    with pytest.raises(DivergenceError):
        fit_logistic(X, y, n_classes, epochs=5)


def test_kmeans_two_obvious_clusters():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    model = fit_kmeans(X, k=2, seed=1)
    got = sorted(model.centroids.tolist())
    np.testing.assert_allclose(got, [[0.0, 0.5], [10.0, 0.5]], atol=1e-12)
    # the two left points share a cluster, likewise the two right points
    assert model.assignments[0] == model.assignments[1]
    assert model.assignments[2] == model.assignments[3]
    assert model.assignments[0] != model.assignments[2]


def test_kmeans_k_equals_n():
    X = np.array([[0.0], [5.0], [9.0]])
    model = fit_kmeans(X, k=3, seed=4)
    assert sorted(model.centroids.ravel().tolist()) == [0.0, 5.0, 9.0]
    assert np.unique(model.assignments).size == 3


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 2))
    m1 = fit_kmeans(X, k=3, seed=7)
    m2 = fit_kmeans(X, k=3, seed=7)
    np.testing.assert_array_equal(m1.assignments, m2.assignments)
    np.testing.assert_array_equal(m1.centroids, m2.centroids)


def test_kmeans_predict_maps_to_nearest_centroid():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    model = fit_kmeans(X, k=2, seed=1)
    fresh = model.predict(np.array([[-1.0, 0.5], [11.0, 0.5]]))
    assert fresh[0] != fresh[1]


def test_kmeans_rejects_bad_k():
    X = np.zeros((3, 2))
    with pytest.raises(DomainError):
        fit_kmeans(X, k=0)
    with pytest.raises(DomainError):
        fit_kmeans(X, k=4)
