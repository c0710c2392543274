"""Unit tests for the built-in learners."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference as ref
import normetric
from normetric import (
    DegenerateDistributionError, DivergenceError, DomainError, ShapeError, TaskKind, learners, make_blobs,
)
from normetric.learners import (
    LogisticModel,
    _row_sum,
    _fit_logistic_stack,
    _sigmoid,
    _softmax,
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


def _second_step(X, y, n_classes, seed, learning_rate=4.0):
    """fit_logistic's weights and intercepts after one epoch, and the gradient its second epoch takes there.

    A learning rate of 4 carries the seeded start (W near 0, b = 0) to a point where b is far from 0 and the
    logits reach past the sigmoid's linear middle; a power of two, it divides the step back out exactly.
    """
    first, second = (fit_logistic(X, y, n_classes, epochs=epochs, learning_rate=learning_rate, seed=seed)
                     for epochs in (1, 2))
    step = lambda attr: (getattr(first, attr) - getattr(second, attr)) / learning_rate
    return first.weights, first.intercepts, step("weights"), step("intercepts")


def test_binary_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(12, 3)) * 2.0
    y = (rng.random(12) < 0.7).astype(int)
    y[:2] = [0, 1]
    (w,), (b,), (grad_w,), (grad_b,) = _second_step(X, y, 2, seed=7)
    assert abs(b) > 0.1 and np.abs(X @ w + b).max() > 1.0
    yf = y.astype(float)

    grad_w_fd = _finite_difference(lambda: ref.binary_cross_entropy(w, b, X, yf), w)
    np.testing.assert_allclose(grad_w, grad_w_fd, atol=1e-7)

    eps = 1e-6
    up = ref.binary_cross_entropy(w, b + eps, X, yf)
    down = ref.binary_cross_entropy(w, b - eps, X, yf)
    assert grad_b == pytest.approx((up - down) / (2 * eps), abs=1e-7)


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(10, 4))
    y = rng.integers(0, 3, size=10)
    y[:3] = [0, 1, 2]
    onehot = np.zeros((10, 3))
    onehot[np.arange(10), y] = 1.0
    W, b, grad_W, grad_b = _second_step(X, y, 3, seed=7)
    assert np.abs(b).min() > 0.1 and np.abs(X @ W.T + b).max() > 1.0

    grad_W_fd = _finite_difference(lambda: ref.softmax_cross_entropy(W, b, X, onehot), W)
    grad_b_fd = _finite_difference(lambda: ref.softmax_cross_entropy(W, b, X, onehot), b)
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
    # past 128 terms numpy's row sum splits each row into two pairwise halves
    (260, 5, 130, 0.5, 1.0, 30),
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


@st.composite
def ragged_stacks(draw):
    """1-6 training sets of 1-300 rows that share d and the class count, so no set starts at a multiple of 4 or 8
    rows but by chance.  A set of one row holds one class, which fit_logistic refuses."""
    n_classes = draw(st.sampled_from([2, 3, 4, 8, 130]))
    d = draw(st.integers(1, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for n in draw(st.lists(st.integers(1, 300), min_size=1, max_size=6)):
        X = rng.normal(size=(n, d)) * draw(st.sampled_from([0.01, 1.0, 30.0, 800.0]))
        y = rng.integers(0, n_classes, size=n)
        y[:2] = [0, 1][:n]
        sets.append((X, y, draw(st.integers(0, 2**32 - 1))))
    return sets, n_classes, draw(st.integers(1, 25)), draw(st.sampled_from([0.05, 0.5, 1.0, 2.5]))


def _fixed_stack(sizes, n_classes):
    """A stack of sets of the given sizes and 13 features, 25 epochs at learning rate 1.0, as ragged_stacks draws."""
    rng = np.random.default_rng(len(sizes))
    sets = []
    for seed, n in enumerate(sizes):
        y = rng.integers(0, n_classes, size=n)
        y[:2] = [0, 1]
        sets.append((rng.normal(size=(n, 13)), y, seed))
    return sets, n_classes, 25, 1.0


# 20 sets whose lengths straddle the steps of numpy's pairwise sum (8 partial sums, blocks of 128 terms) and 1024
STRADDLING = [7, 8, 9, 2, 127, 128, 129, 15, 16, 17, 1023, 1024, 1025, 3, 255, 256, 257, 63, 64, 65]


@settings(max_examples=150, deadline=None)
@given(ragged_stacks())
@example(_fixed_stack(STRADDLING, 2))
@example(_fixed_stack(STRADDLING, 3))
@example(_fixed_stack([129], 2))
@example(_fixed_stack([129], 4))
def test_a_stack_fits_each_set_as_the_loss_evaluating_loop_does_alone(case):
    """Every set's weights are the bits of the oracle run on that set alone, up to the first set that
    cannot be fitted, whose own error is raised after the sets before it are yielded."""
    sets, n_classes, epochs, learning_rate = case
    fitted = _fit_logistic_stack(iter(sets), n_classes, epochs, learning_rate)
    for X, y, seed in sets:
        if X.shape[0] == 1:
            with pytest.raises(DegenerateDistributionError, match="^training labels contain a single class$"):
                next(fitted)
            return
        model = next(fitted)
        weights, intercepts = ref.ref_fit_logistic_with_loss(X, y, n_classes, epochs, learning_rate, seed)
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.intercepts, intercepts)
    assert next(fitted, None) is None


def test_a_stacked_binary_curve_gives_the_same_points_on_one_or_two_blas_threads():
    """OpenBLAS splits a gemv of some 9216 cells or more (here sizes from 720 rows) between its threads: the
    points, pickled in processes started with one and with two, must be the same bytes."""
    script = """
import pickle, sys
from normetric import LearnerConfig, TaskKind, make_binary_classification, run_curve, schedule
points = run_curve(make_binary_classification(1400, d=13, seed=0), schedule(80, 1000, 40),
                   TaskKind.BINARY_CLASSIFICATION, LearnerConfig(learning_rate=1.0), seed=0)
sys.stdout.buffer.write(pickle.dumps(points))
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(normetric.__file__))}
    runs = [subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120,
                           env={**env, "OPENBLAS_NUM_THREADS": threads}) for threads in ("1", "2")]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, b""), (0, b"")]
    assert runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize("setting, value, message", [
    ("learning_rate", math.nan, "learning rate must be finite and positive, got nan"),
    ("learning_rate", math.inf, "learning rate must be finite and positive, got inf"),
    ("learning_rate", 0.0, "learning rate must be finite and positive, got 0.0"),
    ("epochs", 2.5, "epochs must be a whole number >= 1, got 2.5"),
    ("epochs", 0, "epochs must be a whole number >= 1, got 0"),
], ids=["nan-rate", "inf-rate", "zero-rate", "fractional-epochs", "zero-epochs"])
@pytest.mark.parametrize("n_classes", [2, 3])
def test_a_bad_setting_is_named_before_any_epoch_runs(monkeypatch, setting, value, message, n_classes):
    """Not a divergence after every epoch ran, nor range()'s TypeError."""
    monkeypatch.setattr(learners, "_descend", lambda *args: pytest.fail("an epoch ran"))
    X = np.random.default_rng(5).standard_normal((12, 3))
    with pytest.raises(DomainError) as raised:
        fit_logistic(X, np.arange(12) % n_classes, n_classes, **{setting: value})
    assert str(raised.value) == message


@pytest.mark.parametrize("n_classes", [2, 3])
def test_a_set_that_diverges_inside_a_stack_raises_its_own_error_after_the_sets_before_it(n_classes):
    rng = np.random.default_rng(9)
    sets = [(rng.standard_normal((n, 3)) * scale, np.arange(n) % n_classes, n)
            for n, scale in ((30, 1.0), (41, 1e300), (52, 1.0))]
    alone = []
    for X, y, seed in sets:
        try:
            alone.append(fit_logistic(X, y, n_classes, epochs=20, learning_rate=1.0, seed=seed))
        except DivergenceError as exc:
            alone.append(str(exc))
    assert alone[1] == "fit diverged at training size 41, learning rate 1.0"
    fitted = _fit_logistic_stack(sets, n_classes, 20, 1.0)
    first = next(fitted)
    assert np.array_equal(first.weights, alone[0].weights) and np.array_equal(first.intercepts, alone[0].intercepts)
    with pytest.raises(DivergenceError, match=f"^{alone[1]}$"):
        next(fitted)


@pytest.mark.parametrize("n_classes", [3, 4, 8, 12, 129])
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
    # predict_proba must not leak the overflow warning (an error under this suite's filter)
    proba = model.predict_proba(logits)
    with np.errstate(over="ignore"):  # -1e308 - 1e308 overflows to -inf, which exp sends to 0
        assert np.array_equal(proba, ref.ref_softmax(logits @ model.weights.T + model.intercepts))
        assert _softmax(in_place, out=in_place) is in_place
        assert np.array_equal(in_place, ref.ref_softmax(logits))


@pytest.mark.parametrize("m", list(range(1, 41)) + [127, 128, 129, 136, 200, 300])
def test_row_sum_equals_numpy_sum_bitwise(m):
    """_row_sum gives the bits of sum(axis=-1) on both sides of its 8-term switch, on 2-D and 3-D input."""
    rng = np.random.default_rng(m)
    n = int(rng.integers(1, 600))
    flat = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-8, 9, size=(n, m))
    flat[0] = -0.0  # numpy's sum of -0.0s is 0.0
    flat[-1, : m // 2] = 0.0
    stacked = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 40)), m))
    for a in (flat, stacked):
        got, want = _row_sum(a), a.sum(axis=-1)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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


@pytest.mark.parametrize("n_classes", [2, 3])
def test_a_strided_or_f_ordered_feature_matrix_fits_to_its_c_copy_s_bits(n_classes):
    """A view of every other column of a 1000 x 26 array, with no copy, fitted slower and, binary, to other bits."""
    rng = np.random.default_rng(24)
    big = rng.normal(size=(1000, 26))
    y = rng.integers(0, n_classes, size=1000)
    strided = big[:, ::2]
    assert not strided.flags.c_contiguous
    fits = [fit_logistic(X, y, n_classes, epochs=50, seed=5)
            for X in (np.ascontiguousarray(strided), strided, np.asfortranarray(strided))]
    for model in fits[1:]:
        assert model.weights.tobytes() == fits[0].weights.tobytes()
        assert model.intercepts.tobytes() == fits[0].intercepts.tobytes()


def test_logistic_rejects_degenerate_labels():
    X = np.zeros((5, 2))
    with pytest.raises(DegenerateDistributionError):
        fit_logistic(X, np.zeros(5, dtype=int), n_classes=2)
    with pytest.raises(DomainError):
        fit_logistic(X, np.array([0, 1, 0, 1, 2]), n_classes=2)


@pytest.mark.parametrize("n_classes", [2, 3])
def test_logistic_divergence_is_reported(n_classes):
    """An overflowing run raises instead of returning junk weights; a NaN feature is refused before it runs."""
    rng = np.random.default_rng(4)
    X = 1e10 * rng.standard_normal((40, 3))  # the first step, about 1e300 * 1e10, overflows
    y = np.arange(40) % n_classes
    with pytest.raises(DivergenceError, match="training size 40, learning rate 1e\\+300"):
        fit_logistic(X, y, n_classes, epochs=50, learning_rate=1e300)
    X[5, 1] = np.nan
    with pytest.raises(DomainError, match=r"^X must hold finite numbers; X\[5\] is "):
        fit_logistic(X, y, n_classes, epochs=5)


def test_logits_that_overflow_are_a_domain_error():
    """Weights near 1e307 from a fit that never overflowed, applied to unstandardized rows."""
    ds = make_blobs(120, d=3, n_classes=2, seed=2, task=TaskKind.BINARY_CLASSIFICATION, spread=0.5)
    X = ds.features[:90]
    model = fit_logistic((X - X.mean(axis=0)) / X.std(axis=0), ds.target[:90].astype(int), 2, learning_rate=1e308)
    assert np.abs(model.weights).max() > 1e307
    with pytest.raises(DomainError, match="too large to score"):
        model.predict_proba(ds.features)


# each learner fitted on a feature matrix, with labels or a k that suit any row count
FITS = {
    "linear": lambda X: fit_linear(X, np.arange(len(X), dtype=float)),
    "sigmoid": lambda X: fit_logistic(X, np.arange(len(X)) % 2, 2, epochs=5),
    "softmax": lambda X: fit_logistic(X, np.arange(len(X)) % 3, 3, epochs=5),
    "kmeans": lambda X: fit_kmeans(X, 2),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("fit", FITS.values(), ids=FITS.keys())
def test_non_finite_features_are_a_domain_error_naming_the_first_bad_row(fit, value):
    """Not NaN weights, a NaN centroid or a reported divergence, but the row at fault."""
    X = np.random.default_rng(3).standard_normal((12, 3))
    X[7, 0] = X[5, 2] = value
    with pytest.raises(DomainError) as raised:
        fit(X)
    assert str(raised.value) == f"X must hold finite numbers; X[5] is {X[5].tolist()!r}"


@pytest.mark.parametrize("fit", FITS.values(), ids=FITS.keys())
def test_every_fit_refuses_an_empty_or_one_dimensional_feature_matrix_alike(fit):
    with pytest.raises(DomainError, match="^cannot fit on an empty dataset$"):
        fit(np.empty((0, 3)))
    with pytest.raises(ShapeError, match="^feature matrix must be 2-D, got ndim=1$"):
        fit(np.zeros(6))


def test_labels_and_targets_need_one_value_per_row():
    for fit in (fit_linear, lambda X, y: fit_logistic(X, y, 2)):
        with pytest.raises(ShapeError, match=r"^y must have one value per row, got \(3,\) for 4 rows$"):
            fit(np.zeros((4, 2)), np.array([0, 1, 0]))


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


def test_kmeans_reseed_does_not_land_on_another_centroid():
    # at seed 1 the row farthest from an emptied cluster's stale centroid is
    # a [0, 0] row, where another centroid already sits: reseeding there
    # would leave the cluster empty
    X = np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0]] * 3 + [[9.0, 0.0]])
    for seed in range(10):
        model = fit_kmeans(X, k=3, seed=seed)
        assert np.unique(model.assignments).size == 3, seed
        assert np.unique(model.centroids, axis=0).shape[0] == 3, seed


@pytest.mark.parametrize("case", range(40))
def test_kmeans_equals_the_row_loop_on_duplicate_rows(case):
    # quarter-grid coordinates keep every centroid sum exact, so the pairwise
    # sum of np.mean and the loop's running sum agree and ties break alike
    rng = np.random.default_rng(case)
    points = rng.integers(-8, 9, size=(int(rng.integers(2, 7)), int(rng.integers(1, 4)))) / 4.0
    X = points[rng.integers(0, len(points), int(rng.integers(4, 30)))]
    k = min(int(rng.integers(2, 6)), X.shape[0])
    model = fit_kmeans(X, k, seed=case)
    centroids, assignments = ref.ref_fit_kmeans(X, k, seed=case)
    assert model.assignments.tolist() == assignments
    np.testing.assert_allclose(model.centroids, centroids, rtol=0.0, atol=1e-12)
